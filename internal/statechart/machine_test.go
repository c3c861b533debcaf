package statechart_test

import (
	"testing"
	"time"

	"rmtest/internal/interp"
	"rmtest/internal/statechart"
)

// The tests in this file run charts on the chart interpreter
// (internal/interp), the executable reference of the charts' semantics.

func compilePump(t *testing.T) *statechart.Compiled {
	t.Helper()
	cc, err := statechart.PumpChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

func TestBolusSuperStepChainsTwoTransitions(t *testing.T) {
	m := interp.NewMachine(compilePump(t))
	res := m.Step("i_BolusReq")
	// Idle->BolusRequested chains into BolusRequested->Infusion in the
	// same tick (before(100) holds at entry) — the two transition delays
	// of Fig. 3-(d).
	if len(res.Taken) != 2 {
		t.Fatalf("taken=%v", res.Taken)
	}
	if res.Taken[0].Label != "Idle->BolusRequested" || res.Taken[1].Label != "BolusRequested->Infusion" {
		t.Fatalf("taken=%v", res.Taken)
	}
	if m.ActiveState() != "Infusion" {
		t.Fatalf("active %q", m.ActiveState())
	}
	if m.Get("o_MotorState") != 1 {
		t.Fatal("motor should be on")
	}
	if len(res.Changed) != 1 || res.Changed[0].Name != "o_MotorState" || res.Changed[0].To != 1 {
		t.Fatalf("changed=%v", res.Changed)
	}
}

func TestInfusionEndsAtExactly4000Ticks(t *testing.T) {
	m := interp.NewMachine(compilePump(t))
	m.Step("i_BolusReq") // enters Infusion at tick 0
	for i := 0; i < 3999; i++ {
		if res := m.Step(); len(res.Taken) != 0 {
			t.Fatalf("early transition at tick %d: %v", i+1, res.Taken)
		}
	}
	res := m.Step() // tick 4000 after entry
	if len(res.Taken) != 1 || res.Taken[0].Label != "Infusion->Idle" {
		t.Fatalf("taken=%v at tick %d", res.Taken, m.Tick())
	}
	if m.Get("o_MotorState") != 0 {
		t.Fatal("motor should stop")
	}
}

func TestEmptyAlarmInterruptsInfusion(t *testing.T) {
	m := interp.NewMachine(compilePump(t))
	m.Step("i_BolusReq")
	for i := 0; i < 100; i++ {
		m.Step()
	}
	res := m.Step("i_EmptyAlarm")
	if m.ActiveState() != "EmptyAlarm" {
		t.Fatalf("active %q", m.ActiveState())
	}
	if m.Get("o_MotorState") != 0 || m.Get("o_BuzzerState") != 1 {
		t.Fatalf("motor=%d buzzer=%d", m.Get("o_MotorState"), m.Get("o_BuzzerState"))
	}
	if len(res.Changed) != 2 {
		t.Fatalf("changed=%v", res.Changed)
	}
	res = m.Step("i_ClearAlarm")
	if m.ActiveState() != "Idle" || m.Get("o_BuzzerState") != 0 {
		t.Fatalf("active %q buzzer %d", m.ActiveState(), m.Get("o_BuzzerState"))
	}
	_ = res
}

func TestEventIgnoredWhenNoTransitionListens(t *testing.T) {
	m := interp.NewMachine(compilePump(t))
	res := m.Step("i_ClearAlarm") // Idle has no ClearAlarm transition
	if len(res.Taken) != 0 || m.ActiveState() != "Idle" {
		t.Fatalf("taken=%v active=%s", res.Taken, m.ActiveState())
	}
}

func TestUnconsumedEventDoesNotCarryOver(t *testing.T) {
	m := interp.NewMachine(compilePump(t))
	m.Step("i_ClearAlarm") // ignored in Idle
	m.Step("i_EmptyAlarm")
	if m.ActiveState() != "EmptyAlarm" {
		t.Fatalf("active=%s: the ignored i_ClearAlarm was still pending a tick later", m.ActiveState())
	}
}

func TestUndeclaredEventPanics(t *testing.T) {
	m := interp.NewMachine(compilePump(t))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Step("i_Nonsense")
}

func TestReset(t *testing.T) {
	m := interp.NewMachine(compilePump(t))
	m.Step("i_BolusReq")
	m.Reset()
	if m.ActiveState() != "Idle" || m.Get("o_MotorState") != 0 || m.Tick() != 0 {
		t.Fatalf("reset failed: %s %d %d", m.ActiveState(), m.Get("o_MotorState"), m.Tick())
	}
}

func TestGuardsSelectTransition(t *testing.T) {
	c := &statechart.Chart{
		Name:       "guarded",
		TickPeriod: time.Millisecond,
		Events:     []string{"go"},
		Vars: []statechart.VarDecl{
			{Name: "level", Type: statechart.Int, Kind: statechart.Input},
			{Name: "out", Type: statechart.Int, Kind: statechart.Output},
		},
		Initial: "S",
		States: []*statechart.State{
			{Name: "S", Transitions: []statechart.Transition{
				{To: "High", Trigger: "go", Guard: "level >= 10", Action: "out := 2"},
				{To: "Low", Trigger: "go", Guard: "level < 10", Action: "out := 1"},
			}},
			{Name: "High", Transitions: []statechart.Transition{{To: "S", Trigger: "go"}}},
			{Name: "Low", Transitions: []statechart.Transition{{To: "S", Trigger: "go"}}},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	m.SetInput("level", 3)
	m.Step("go")
	if m.ActiveState() != "Low" || m.Get("out") != 1 {
		t.Fatalf("active %s out %d", m.ActiveState(), m.Get("out"))
	}
	m.Step("go")
	m.SetInput("level", 12)
	m.Step("go")
	if m.ActiveState() != "High" || m.Get("out") != 2 {
		t.Fatalf("active %s out %d", m.ActiveState(), m.Get("out"))
	}
}

func TestDocumentOrderPriority(t *testing.T) {
	c := &statechart.Chart{
		Name:       "prio",
		TickPeriod: time.Millisecond,
		Events:     []string{"e"},
		Vars:       []statechart.VarDecl{{Name: "out", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "S",
		States: []*statechart.State{
			{Name: "S", Transitions: []statechart.Transition{
				{To: "A", Trigger: "e", Action: "out := 1"},
				{To: "B", Trigger: "e", Action: "out := 2"},
			}},
			{Name: "A"}, {Name: "B"},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	m.Step("e")
	if m.ActiveState() != "A" || m.Get("out") != 1 {
		t.Fatalf("document order violated: %s out=%d", m.ActiveState(), m.Get("out"))
	}
}

func TestEntryExitDuringActions(t *testing.T) {
	c := &statechart.Chart{
		Name:       "actions",
		TickPeriod: time.Millisecond,
		Events:     []string{"go", "back"},
		Vars: []statechart.VarDecl{
			{Name: "entries", Type: statechart.Int, Kind: statechart.Output},
			{Name: "exits", Type: statechart.Int, Kind: statechart.Output},
		},
		Initial: "A",
		States: []*statechart.State{
			{Name: "A",
				Exit:        "exits := exits + 1",
				Transitions: []statechart.Transition{{To: "B", Trigger: "go"}}},
			{Name: "B",
				Entry:       "entries := entries + 1",
				Transitions: []statechart.Transition{{To: "A", Trigger: "back"}}},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	m.Step() // stable tick in A: no action runs
	m.Step("go")
	if m.Get("exits") != 1 || m.Get("entries") != 1 {
		t.Fatalf("exits=%d entries=%d", m.Get("exits"), m.Get("entries"))
	}
}

func TestHierarchyEntersInitialChildAndInheritsTransitions(t *testing.T) {
	c := &statechart.Chart{
		Name:       "hier",
		TickPeriod: time.Millisecond,
		Events:     []string{"go", "abort", "inner"},
		Vars:       []statechart.VarDecl{{Name: "out", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "Off",
		States: []*statechart.State{
			{Name: "Off", Transitions: []statechart.Transition{{To: "On", Trigger: "go"}}},
			{
				Name:    "On",
				Initial: "Slow",
				Entry:   "out := 10",
				// Parent-level transition applies from any child.
				Transitions: []statechart.Transition{{To: "Off", Trigger: "abort", Action: "out := 0"}},
				Children: []*statechart.State{
					{Name: "Slow", Transitions: []statechart.Transition{{To: "Fast", Trigger: "inner"}}},
					{Name: "Fast", Exit: "out := out + 1"},
				},
			},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	m.Step("go")
	if m.ActiveState() != "Slow" {
		t.Fatalf("active %q, want initial child Slow", m.ActiveState())
	}
	if got := m.ActivePath(); len(got) != 2 || got[0] != "On" || got[1] != "Slow" {
		t.Fatalf("path %v", got)
	}
	if m.Get("out") != 10 {
		t.Fatal("parent entry action should run")
	}
	m.Step("inner")
	if m.ActiveState() != "Fast" {
		t.Fatalf("active %q", m.ActiveState())
	}
	// Parent transition fires from the leaf; Fast's exit runs on the way out.
	m.Step("abort")
	if m.ActiveState() != "Off" {
		t.Fatalf("active %q", m.ActiveState())
	}
	if m.Get("out") != 0 {
		t.Fatalf("out=%d; exit then transition action order violated", m.Get("out"))
	}
}

// modeChart: a mode composite that is left and re-entered. Pausing and
// resuming re-enters the composite's initial sub-mode, whichever one was
// active at the pause.
func modeChart() *statechart.Chart {
	return &statechart.Chart{
		Name:       "mode",
		TickPeriod: time.Millisecond,
		Events:     []string{"pause", "resume", "fast"},
		Vars:       []statechart.VarDecl{{Name: "out", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "Run",
		States: []*statechart.State{
			{
				Name:    "Run",
				Initial: "Slow",
				Transitions: []statechart.Transition{
					{To: "Paused", Trigger: "pause"},
				},
				Children: []*statechart.State{
					{Name: "Slow", Entry: "out := 1", Transitions: []statechart.Transition{
						{To: "Fast", Trigger: "fast"},
					}},
					{Name: "Fast", Entry: "out := 2"},
				},
			},
			{
				Name: "Paused",
				Transitions: []statechart.Transition{
					{To: "Run", Trigger: "resume"},
				},
			},
		},
	}
}

func TestReentryEntersInitialChild(t *testing.T) {
	cc, err := modeChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	m.Step("fast")
	m.Step("pause")
	m.Step("resume")
	if m.ActiveState() != "Slow" || m.Get("out") != 1 {
		t.Fatalf("resume should enter Slow, got %q with out=%d", m.ActiveState(), m.Get("out"))
	}
}

func TestLeafTransitionBeatsParentTransition(t *testing.T) {
	c := &statechart.Chart{
		Name:       "shadow",
		TickPeriod: time.Millisecond,
		Events:     []string{"e"},
		Vars:       []statechart.VarDecl{{Name: "who", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "P",
		States: []*statechart.State{
			{
				Name:        "P",
				Initial:     "C",
				Transitions: []statechart.Transition{{To: "Other", Trigger: "e", Action: "who := 2"}},
				Children: []*statechart.State{
					{Name: "C", Transitions: []statechart.Transition{{To: "Other", Trigger: "e", Action: "who := 1"}}},
				},
			},
			{Name: "Other"},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	m.Step("e")
	if m.Get("who") != 1 {
		t.Fatalf("who=%d, leaf should win", m.Get("who"))
	}
}

func TestAfterTrigger(t *testing.T) {
	c := &statechart.Chart{
		Name:       "after",
		TickPeriod: time.Millisecond,
		Vars:       []statechart.VarDecl{{Name: "out", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "Wait",
		States: []*statechart.State{
			{Name: "Wait", Transitions: []statechart.Transition{
				{To: "Done", Trigger: "after(5, E_CLK)", Action: "out := 1"},
			}},
			{Name: "Done"},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	for i := 0; i < 5; i++ {
		if res := m.Step(); len(res.Taken) != 0 {
			t.Fatalf("fired early at tick %d", i)
		}
	}
	if res := m.Step(); len(res.Taken) != 1 {
		t.Fatal("after(5) should fire on the fifth tick after entry")
	}
}

func TestLivelockDetected(t *testing.T) {
	c := &statechart.Chart{
		Name:       "livelock",
		TickPeriod: time.Millisecond,
		Initial:    "A",
		States: []*statechart.State{
			{Name: "A", Transitions: []statechart.Transition{{To: "B"}}},
			{Name: "B", Transitions: []statechart.Transition{{To: "A"}}},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	res := m.Step()
	if res.Err == nil {
		t.Fatal("expected livelock error")
	}
}

func TestActionErrorSurfacesInStepResult(t *testing.T) {
	c := &statechart.Chart{
		Name:       "err",
		TickPeriod: time.Millisecond,
		Events:     []string{"e"},
		Vars: []statechart.VarDecl{
			{Name: "d", Type: statechart.Int, Kind: statechart.Input},
			{Name: "out", Type: statechart.Int, Kind: statechart.Output},
		},
		Initial: "A",
		States: []*statechart.State{
			{Name: "A", Transitions: []statechart.Transition{
				{To: "B", Trigger: "e", Action: "out := 10 / d"},
			}},
			{Name: "B"},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	m.SetInput("d", 0)
	res := m.Step("e")
	if res.Err == nil {
		t.Fatal("division by zero in action must surface")
	}
	m.Reset()
	m.SetInput("d", 2)
	res = m.Step("e")
	if res.Err != nil || m.Get("out") != 5 {
		t.Fatalf("err=%v out=%d", res.Err, m.Get("out"))
	}
}

func TestVarsSnapshotIsCopy(t *testing.T) {
	m := interp.NewMachine(compilePump(t))
	v := m.Vars()
	v["o_MotorState"] = 42
	if m.Get("o_MotorState") == 42 {
		t.Fatal("Vars must return a copy")
	}
}

func TestSetInputRejectsNonInput(t *testing.T) {
	m := interp.NewMachine(compilePump(t))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetInput("o_MotorState", 1)
}

func TestUndeclaredEventPanicLeavesNoEventPending(t *testing.T) {
	m := interp.NewMachine(compilePump(t))
	func() {
		defer func() { recover() }()
		m.Step("i_BolusReq", "i_Nonsense")
	}()
	if res := m.Step(); len(res.Taken) != 0 || m.ActiveState() != "Idle" {
		t.Fatalf("event from the rejected Step leaked: taken=%v active=%s", res.Taken, m.ActiveState())
	}
}

// TestRestoreAndStableStepAllocateNothing pins the interpreter's Restore,
// which the oracle checker explores with, and its steady state: Restore
// copies into the machine's own storage, and a Step on a tick where no
// transition fires touches no heap.
func TestRestoreAndStableStepAllocateNothing(t *testing.T) {
	for _, c := range []*statechart.Chart{statechart.PumpChart(), modeChart()} {
		cc, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		m := interp.NewMachine(cc)
		m.Step(c.Events[0])
		snap := m.Snapshot()
		m.Step(c.Events[1])
		if avg := testing.AllocsPerRun(100, func() { m.Restore(snap) }); avg != 0 {
			t.Errorf("%s: Restore allocates %.2f allocs/op, want 0", c.Name, avg)
		}
		m.Reset()
		if avg := testing.AllocsPerRun(100, func() { m.Step() }); avg != 0 {
			t.Errorf("%s: a stable Step allocates %.2f allocs/op, want 0", c.Name, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { m.Step(c.Events[2]) }); avg != 0 {
			t.Errorf("%s: a Step whose event fires nothing allocates %.2f allocs/op, want 0", c.Name, avg)
		}
	}
}
