// Package randchart draws random but structurally valid statecharts for
// differential and property tests. Only _test.go files import it.
package randchart

import (
	"fmt"
	"time"

	"rmtest/internal/sim"
	"rmtest/internal/statechart"
)

// Chart generates a random but structurally valid chart: 2-6 top-level
// states, some of them composites of 2-3 children; random transitions
// with event, temporal and guarded triggerless triggers; guards over an
// input variable, one of which divides by it; and entry, exit and
// transition actions over two outputs and a local. Its events are e0, e1
// and e2, its input in0, its outputs out0 and out1 and its local loc0. A
// given generator state always draws the same chart.
func Chart(r *sim.Rand) *statechart.Chart {
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
	c.States = states(r, "S", 2+r.Intn(5), true)
	c.Initial = c.States[0].Name
	return c
}

// states generates n sibling states named prefix0, prefix1, ... whose
// transitions target one another. With nest set, a state may become a
// composite of random children.
func states(r *sim.Rand, prefix string, n int, nest bool) []*statechart.State {
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
	out := make([]*statechart.State, n)
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
		if nest && r.Bool(0.3) {
			st.Children = states(r, name+"_", 2+r.Intn(2), false)
			st.Initial = st.Children[0].Name
		}
		out[i] = st
	}
	return out
}
