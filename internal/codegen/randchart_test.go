package codegen

import (
	"testing"

	"rmtest/internal/interp"
	"rmtest/internal/randchart"
	"rmtest/internal/sim"
)

// TestDifferentialRandomCharts generates hundreds of random charts and
// checks that the interpreter and the generated code agree on state,
// outputs, transition sequences and error behaviour over random stimuli.
func TestDifferentialRandomCharts(t *testing.T) {
	events := []string{"e0", "e1", "e2"}
	for seed := uint64(1); seed <= 200; seed++ {
		r := sim.NewRand(seed)
		chart := randchart.Chart(r)
		cc, err := chart.Compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		prog, err := Generate(cc)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		m := interp.NewMachine(cc)
		e := NewExec(prog, ZeroCostModel(), nil, nil)
		steps := 30 + r.Intn(100)
		for i := 0; i < steps; i++ {
			var evs []string
			for _, ev := range events {
				if r.Bool(0.3) {
					evs = append(evs, ev)
				}
			}
			in := int64(r.Intn(6))
			m.SetInput("in0", in)
			e.SetInput("in0", in)
			mres := m.Step(evs...)
			eres := e.Step(e.EventMask(evs...))
			if (mres.Err == nil) != (eres.Err == nil) {
				t.Fatalf("seed %d step %d: error mismatch %v vs %v", seed, i, mres.Err, eres.Err)
			}
			if mres.Err != nil {
				break // livelocked chart: both agree, stop comparing
			}
			if m.ActiveState() != e.ActiveState() {
				t.Fatalf("seed %d step %d: state %s vs %s", seed, i, m.ActiveState(), e.ActiveState())
			}
			if diff := takenDiff(prog, mres.Taken, eres.Taken); diff != "" {
				t.Fatalf("seed %d step %d: %s", seed, i, diff)
			}
			for _, v := range []string{"out0", "out1", "loc0"} {
				if m.Get(v) != e.Get(v) {
					t.Fatalf("seed %d step %d: %s: %d vs %d", seed, i, v, m.Get(v), e.Get(v))
				}
			}
		}
	}
}
