package codegen

import (
	"testing"
	"time"

	"rmtest/internal/statechart"
)

// modeChart: a mode composite that is left and re-entered. Resuming
// enters Run and then its initial sub-mode Slow in one transition.
func modeChart() *statechart.Chart {
	return &statechart.Chart{
		Name:       "mode",
		TickPeriod: time.Millisecond,
		Events:     []string{"pause", "resume", "fast"},
		Vars:       []statechart.VarDecl{{Name: "out", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "Run",
		States: []*statechart.State{
			{
				Name:        "Run",
				Initial:     "Slow",
				Transitions: []statechart.Transition{{To: "Paused", Trigger: "pause"}},
				Children: []*statechart.State{
					{Name: "Slow", Entry: "out := 1", Transitions: []statechart.Transition{
						{To: "Fast", Trigger: "fast"},
					}},
					{Name: "Fast", Entry: "out := 2"},
				},
			},
			{Name: "Paused", Transitions: []statechart.Transition{{To: "Run", Trigger: "resume"}}},
		},
	}
}

// TestRestoreAndStableStepAllocateNothing pins the model checker's hot
// path on the executor it runs, with a nil ExecEnv and listener and write
// recording on: LoadRow copies a row into the executor's own storage,
// and AppendRow into a row with room allocates nothing; a Step in which
// nothing fires touches no heap; and once the result scratch has grown,
// neither does a Step that fires a chain of transitions — the pump's
// Idle->BolusRequested->Infusion, or the mode chart's resume, which
// enters the composite Run and then its child Slow.
func TestRestoreAndStableStepAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		chart       *statechart.Chart
		setup, fire string // fire runs a chain from the state setup reaches
		taken       int
	}{
		{pumpChart(), "", "i_BolusReq", 2},
		{modeChart(), "pause", "resume", 1},
	} {
		_, p := compileProgram(t, tc.chart)
		e := NewExec(p, DefaultCostModel(), nil, nil)
		e.RecordWrites()
		if tc.setup != "" {
			e.Step(e.EventMask(tc.setup))
		}
		from := e.AppendRow(nil)
		if len(from) != e.RowLen() {
			t.Fatalf("%s: a row of %d values, RowLen %d", tc.chart.Name, len(from), e.RowLen())
		}
		mask := e.EventMask(tc.fire)
		if n := len(e.Step(mask).Taken); n != tc.taken {
			t.Fatalf("%s: %s took %d transitions, want %d", tc.chart.Name, tc.fire, n, tc.taken)
		}
		if avg := testing.AllocsPerRun(100, func() { e.LoadRow(from) }); avg != 0 {
			t.Errorf("%s: LoadRow allocates %.2f allocs/op, want 0", tc.chart.Name, avg)
		}
		rows := make([]int64, 0, e.RowLen())
		if avg := testing.AllocsPerRun(100, func() { rows = e.AppendRow(rows[:0]) }); avg != 0 {
			t.Errorf("%s: AppendRow with room allocates %.2f allocs/op, want 0", tc.chart.Name, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { e.Step(0) }); avg != 0 {
			t.Errorf("%s: a stable Step allocates %.2f allocs/op, want 0", tc.chart.Name, avg)
		}
		if avg := testing.AllocsPerRun(100, func() {
			e.LoadRow(from)
			e.Step(mask)
		}); avg != 0 {
			t.Errorf("%s: LoadRow and a Step that fires %s allocate %.2f allocs/op, want 0", tc.chart.Name, tc.fire, avg)
		}
	}
}
