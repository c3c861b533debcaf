package codegen

import (
	"fmt"
	"testing"
	"time"

	"rmtest/internal/sim"
	"rmtest/internal/statechart"
)

// randChart generates a random but structurally valid chart: 2-6
// top-level states, some of them composites of 2-3 children; random
// transitions with event, temporal and guarded triggerless triggers;
// guards over an input variable, one of which divides by it; and entry,
// exit and during actions over two outputs and a local. It stresses the
// whole model -> generated-code path far beyond the hand-written models.
func randChart(r *sim.Rand) *statechart.Chart {
	c := &statechart.Chart{
		Name:       "rand",
		TickPeriod: time.Millisecond,
		Events:     []string{"e0", "e1", "e2"},
		Vars: []statechart.VarDecl{
			{Name: "in0", Type: statechart.Int, Kind: statechart.Input},
			{Name: "out0", Type: statechart.Int, Kind: statechart.Output},
			{Name: "out1", Type: statechart.Int, Kind: statechart.Output},
			{Name: "loc0", Type: statechart.Int, Kind: statechart.Local},
		},
	}
	c.States = randStates(r, "S", 2+r.Intn(5), true)
	c.Initial = c.States[0].Name
	return c
}

// randStates generates n sibling states named prefix0, prefix1, ...
// whose transitions target one another. With nest set, a state may
// become a composite of random children (with or without history).
func randStates(r *sim.Rand, prefix string, n int, nest bool) []*statechart.State {
	events := []string{"e0", "e1", "e2"}
	guards := []string{
		"", "in0 > 2", "in0 % 2 == 0", "loc0 < 5 && in0 != 3", "out0 <= out1 || in0 == 1",
		"10 / in0 > 2",
	}
	actions := []string{
		"", "out0 := out0 + 1", "out1 := in0 * 2", "loc0 := loc0 + 1; out0 := loc0",
		"out1 := max(out0, in0); out0 := 0",
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	states := make([]*statechart.State, n)
	for i, name := range names {
		st := &statechart.State{Name: name}
		nTrans := r.Intn(3)
		for t := 0; t < nTrans; t++ {
			tr := statechart.Transition{
				To:     names[r.Intn(n)],
				Guard:  guards[r.Intn(len(guards))],
				Action: actions[r.Intn(len(actions))],
			}
			// Trigger: mostly events, some temporal, a few triggerless.
			// A triggerless transition is always guarded, which keeps
			// livelock rare (both implementations handle it, but erroring
			// runs compare less behaviour).
			switch r.Intn(8) {
			case 0:
				tr.Trigger = fmt.Sprintf("after(%d, E_CLK)", 1+r.Intn(5))
			case 1:
				tr.Trigger = fmt.Sprintf("at(%d, E_CLK)", 1+r.Intn(5))
			case 2:
				tr.Trigger = fmt.Sprintf("before(%d, E_CLK)", 1+r.Intn(5))
			case 3:
				tr.Guard = guards[1+r.Intn(len(guards)-1)]
			default:
				tr.Trigger = events[r.Intn(len(events))]
			}
			st.Transitions = append(st.Transitions, tr)
		}
		if r.Bool(0.3) {
			st.Entry = actions[1+r.Intn(len(actions)-1)]
		}
		if r.Bool(0.2) {
			st.Exit = actions[1+r.Intn(len(actions)-1)]
		}
		if r.Bool(0.1) {
			st.During = actions[1+r.Intn(len(actions)-1)]
		}
		if nest && r.Bool(0.3) {
			st.Children = randStates(r, name+"_", 2+r.Intn(2), false)
			st.Initial = st.Children[0].Name
			st.History = r.Bool(0.3)
		}
		states[i] = st
	}
	return states
}

// TestDifferentialRandomCharts generates hundreds of random charts and
// checks that the interpreter and the generated code agree on state,
// outputs, transition sequences and error behaviour over random stimuli.
func TestDifferentialRandomCharts(t *testing.T) {
	events := []string{"e0", "e1", "e2"}
	for seed := uint64(1); seed <= 200; seed++ {
		r := sim.NewRand(seed)
		chart := randChart(r)
		cc, err := chart.Compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		prog, err := Generate(cc)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		m := statechart.NewMachine(cc)
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
			if len(mres.Taken) != len(eres.Taken) {
				t.Fatalf("seed %d step %d: taken %v vs %v", seed, i, mres.Taken, eres.Taken)
			}
			for j := range mres.Taken {
				if mres.Taken[j] != eres.Taken[j] {
					t.Fatalf("seed %d step %d: transition %d: %+v vs %+v", seed, i, j, mres.Taken[j], eres.Taken[j])
				}
			}
			for _, v := range []string{"out0", "out1", "loc0"} {
				if m.Get(v) != e.Get(v) {
					t.Fatalf("seed %d step %d: %s: %d vs %d", seed, i, v, m.Get(v), e.Get(v))
				}
			}
		}
	}
}

// TestRandomChartsOptimizedEqualsUnoptimized compiles random charts and
// checks the optimizer changes nothing observable: Exec over the
// optimised program matches the interpreter (which never optimises).
// (Generate always optimises, so this is implicitly covered by the
// differential test; this test documents the intent explicitly on deeper
// expression actions.)
func TestRandomChartsOptimizedEqualsUnoptimized(t *testing.T) {
	c := &statechart.Chart{
		Name:       "optrand",
		TickPeriod: time.Millisecond,
		Events:     []string{"e"},
		Vars: []statechart.VarDecl{
			{Name: "x", Type: statechart.Int, Kind: statechart.Input},
			{Name: "y", Type: statechart.Int, Kind: statechart.Output},
		},
		Initial: "A",
		States: []*statechart.State{
			{Name: "A", Transitions: []statechart.Transition{
				{To: "B", Trigger: "e", Guard: "x * 1 + 0 > 2 && true",
					Action: "y := (x + 0) * (1 * x) + 2 * 3 - 6"},
			}},
			{Name: "B", Transitions: []statechart.Transition{
				{To: "A", Trigger: "e", Action: "y := y / 1 + 0"},
			}},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Generate(cc)
	if err != nil {
		t.Fatal(err)
	}
	m := statechart.NewMachine(cc)
	e := NewExec(prog, ZeroCostModel(), nil, nil)
	r := sim.NewRand(5)
	for i := 0; i < 200; i++ {
		x := int64(r.Intn(8))
		m.SetInput("x", x)
		e.SetInput("x", x)
		m.Step("e")
		e.Step(e.EventMask("e"))
		if m.Get("y") != e.Get("y") || m.ActiveState() != e.ActiveState() {
			t.Fatalf("step %d: y %d vs %d, state %s vs %s", i, m.Get("y"), e.Get("y"), m.ActiveState(), e.ActiveState())
		}
	}
}
