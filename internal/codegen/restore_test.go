package codegen

import (
	"bytes"
	"encoding/binary"
	"slices"
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

// TestAppendConfigLayout pins AppendConfig's documented layout: leaf id,
// one saturated tick count per active-path state, and the requested
// variables.
func TestAppendConfigLayout(t *testing.T) {
	_, p := compileProgram(t, modeChart())
	e := NewExec(p, ZeroCostModel(), nil, nil)
	e.Step(0)
	e.Step(e.EventMask("fast"))
	e.Step(0) // Fast has been active for 2 ticks, its parent Run for 3
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	// State ids in document order: Run 0, Slow 1, Fast 2, Paused 3.
	want := slices.Concat(u32(2), u64(2), u64(3), u64(2))
	if got := e.AppendConfig(nil, 5, []int{0}); !bytes.Equal(got, want) {
		t.Fatalf("in Fast: got %x, want %x", got, want)
	}
	want = slices.Concat(u32(2), u64(2), u64(2), u64(2))
	if got := e.AppendConfig(nil, 2, []int{0}); !bytes.Equal(got, want) {
		t.Fatalf("in Fast, saturated at 2: got %x, want %x", got, want)
	}
	e.Step(e.EventMask("pause"))
	want = slices.Concat(u32(3), u64(1))
	if got := e.AppendConfig(nil, 5, nil); !bytes.Equal(got, want) {
		t.Fatalf("in Paused: got %x, want %x", got, want)
	}
}
