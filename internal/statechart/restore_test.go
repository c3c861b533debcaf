package statechart_test

import (
	"reflect"
	"testing"

	"rmtest/internal/interp"
	"rmtest/internal/randchart"
	"rmtest/internal/sim"
)

// TestRestoreUndoesDetours runs two machines on the same random chart and
// stimuli. One of them now and then snapshots, takes a random detour and
// restores; afterwards the two must agree on everything observable,
// including the entry ticks later steps read.
func TestRestoreUndoesDetours(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := sim.NewRand(seed)
		chart := randchart.Chart(r)
		cc, err := chart.Compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		step := func(m *interp.Machine, evs []string, in int64) error {
			m.SetInput("in0", in)
			return m.Step(evs...).Err
		}
		stimulus := func() ([]string, int64) {
			var evs []string
			for _, e := range chart.Events {
				if r.Bool(0.3) {
					evs = append(evs, e)
				}
			}
			return evs, int64(r.Intn(6))
		}
		detoured, straight := interp.NewMachine(cc), interp.NewMachine(cc)
		for i := 0; i < 60; i++ {
			if r.Bool(0.3) {
				snap := detoured.Snapshot()
				for k := r.Intn(8); k > 0; k-- {
					if evs, in := stimulus(); step(detoured, evs, in) != nil {
						break
					}
				}
				detoured.Restore(snap)
			}
			evs, in := stimulus()
			errD, errS := step(detoured, evs, in), step(straight, evs, in)
			if (errD == nil) != (errS == nil) {
				t.Fatalf("seed %d step %d: errors %v vs %v", seed, i, errD, errS)
			}
			if errD != nil {
				break
			}
			for _, c := range []struct {
				what string
				d, s any
			}{
				{"tick", detoured.Tick(), straight.Tick()},
				{"active path", detoured.ActivePath(), straight.ActivePath()},
				{"active ticks", detoured.ActiveTicks(), straight.ActiveTicks()},
				{"variables", detoured.Vars(), straight.Vars()},
			} {
				if !reflect.DeepEqual(c.d, c.s) {
					t.Fatalf("seed %d step %d: %s %v after a restore, %v without detours", seed, i, c.what, c.d, c.s)
				}
			}
		}
	}
}
