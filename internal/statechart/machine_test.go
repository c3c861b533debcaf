package statechart

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

// pumpChart reproduces Fig. 2 of the paper: the infusion pump statechart
// with Idle, BolusRequested, Infusion and EmptyAlarm states. The tick is
// 1 ms, so before(100, E_CLK) is the 100 ms bolus-start window and
// at(4000, E_CLK) is the 4 s bolus duration.
func pumpChart() *Chart {
	return &Chart{
		Name:       "pump",
		TickPeriod: time.Millisecond,
		Events:     []string{"i_BolusReq", "i_EmptyAlarm", "i_ClearAlarm"},
		Vars: []VarDecl{
			{Name: "o_MotorState", Type: Int, Kind: Output},
			{Name: "o_BuzzerState", Type: Bool, Kind: Output},
		},
		Initial: "Idle",
		States: []*State{
			{
				Name: "Idle",
				Transitions: []Transition{
					{To: "BolusRequested", Trigger: "i_BolusReq"},
					{To: "EmptyAlarm", Trigger: "i_EmptyAlarm",
						Action: "o_MotorState := 0; o_BuzzerState := 1"},
				},
			},
			{
				Name: "BolusRequested",
				Transitions: []Transition{
					{To: "Infusion", Trigger: "before(100, E_CLK)",
						Action: "o_MotorState := 1"},
				},
			},
			{
				Name: "Infusion",
				Transitions: []Transition{
					{To: "Idle", Trigger: "at(4000, E_CLK)",
						Action: "o_MotorState := 0"},
					{To: "EmptyAlarm", Trigger: "i_EmptyAlarm",
						Action: "o_MotorState := 0; o_BuzzerState := 1"},
				},
			},
			{
				Name: "EmptyAlarm",
				Transitions: []Transition{
					{To: "Idle", Trigger: "i_ClearAlarm",
						Action: "o_BuzzerState := 0"},
				},
			},
		},
	}
}

func compilePump(t *testing.T) *Compiled {
	t.Helper()
	cc, err := pumpChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

func TestCompilePumpChart(t *testing.T) {
	cc := compilePump(t)
	if got := cc.InitialLeaf(); got != "Idle" {
		t.Fatalf("initial %q", got)
	}
	if cc.TransitionCount() != 6 {
		t.Fatalf("transitions %d", cc.TransitionCount())
	}
	if len(cc.StateNames()) != 4 {
		t.Fatalf("states %v", cc.StateNames())
	}
	outs := cc.VarNames(Output)
	if len(outs) != 2 || outs[0] != "o_BuzzerState" || outs[1] != "o_MotorState" {
		t.Fatalf("outputs %v", outs)
	}
}

func TestBolusSuperStepChainsTwoTransitions(t *testing.T) {
	m := NewMachine(compilePump(t))
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
	m := NewMachine(compilePump(t))
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
	m := NewMachine(compilePump(t))
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
	m := NewMachine(compilePump(t))
	res := m.Step("i_ClearAlarm") // Idle has no ClearAlarm transition
	if len(res.Taken) != 0 || m.ActiveState() != "Idle" {
		t.Fatalf("taken=%v active=%s", res.Taken, m.ActiveState())
	}
}

func TestUnconsumedEventDoesNotCarryOver(t *testing.T) {
	m := NewMachine(compilePump(t))
	m.Step("i_ClearAlarm") // ignored in Idle
	m.Step("i_EmptyAlarm")
	if m.ActiveState() != "EmptyAlarm" {
		t.Fatalf("active=%s: the ignored i_ClearAlarm was still pending a tick later", m.ActiveState())
	}
}

func TestUndeclaredEventPanics(t *testing.T) {
	m := NewMachine(compilePump(t))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Step("i_Nonsense")
}

func TestReset(t *testing.T) {
	m := NewMachine(compilePump(t))
	m.Step("i_BolusReq")
	m.Reset()
	if m.ActiveState() != "Idle" || m.Get("o_MotorState") != 0 || m.Tick() != 0 {
		t.Fatalf("reset failed: %s %d %d", m.ActiveState(), m.Get("o_MotorState"), m.Tick())
	}
}

func TestGuardsSelectTransition(t *testing.T) {
	c := &Chart{
		Name:       "guarded",
		TickPeriod: time.Millisecond,
		Events:     []string{"go"},
		Vars: []VarDecl{
			{Name: "level", Type: Int, Kind: Input},
			{Name: "out", Type: Int, Kind: Output},
		},
		Initial: "S",
		States: []*State{
			{Name: "S", Transitions: []Transition{
				{To: "High", Trigger: "go", Guard: "level >= 10", Action: "out := 2"},
				{To: "Low", Trigger: "go", Guard: "level < 10", Action: "out := 1"},
			}},
			{Name: "High", Transitions: []Transition{{To: "S", Trigger: "go"}}},
			{Name: "Low", Transitions: []Transition{{To: "S", Trigger: "go"}}},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
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
	c := &Chart{
		Name:       "prio",
		TickPeriod: time.Millisecond,
		Events:     []string{"e"},
		Vars:       []VarDecl{{Name: "out", Type: Int, Kind: Output}},
		Initial:    "S",
		States: []*State{
			{Name: "S", Transitions: []Transition{
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
	m := NewMachine(cc)
	m.Step("e")
	if m.ActiveState() != "A" || m.Get("out") != 1 {
		t.Fatalf("document order violated: %s out=%d", m.ActiveState(), m.Get("out"))
	}
}

func TestEntryExitDuringActions(t *testing.T) {
	c := &Chart{
		Name:       "actions",
		TickPeriod: time.Millisecond,
		Events:     []string{"go", "back"},
		Vars: []VarDecl{
			{Name: "entries", Type: Int, Kind: Output},
			{Name: "exits", Type: Int, Kind: Output},
		},
		Initial: "A",
		States: []*State{
			{Name: "A",
				Exit:        "exits := exits + 1",
				Transitions: []Transition{{To: "B", Trigger: "go"}}},
			{Name: "B",
				Entry:       "entries := entries + 1",
				Transitions: []Transition{{To: "A", Trigger: "back"}}},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	m.Step() // stable tick in A: no action runs
	m.Step("go")
	if m.Get("exits") != 1 || m.Get("entries") != 1 {
		t.Fatalf("exits=%d entries=%d", m.Get("exits"), m.Get("entries"))
	}
}

func TestHierarchyEntersInitialChildAndInheritsTransitions(t *testing.T) {
	c := &Chart{
		Name:       "hier",
		TickPeriod: time.Millisecond,
		Events:     []string{"go", "abort", "inner"},
		Vars:       []VarDecl{{Name: "out", Type: Int, Kind: Output}},
		Initial:    "Off",
		States: []*State{
			{Name: "Off", Transitions: []Transition{{To: "On", Trigger: "go"}}},
			{
				Name:    "On",
				Initial: "Slow",
				Entry:   "out := 10",
				// Parent-level transition applies from any child.
				Transitions: []Transition{{To: "Off", Trigger: "abort", Action: "out := 0"}},
				Children: []*State{
					{Name: "Slow", Transitions: []Transition{{To: "Fast", Trigger: "inner"}}},
					{Name: "Fast", Exit: "out := out + 1"},
				},
			},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
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
func modeChart() *Chart {
	return &Chart{
		Name:       "mode",
		TickPeriod: time.Millisecond,
		Events:     []string{"pause", "resume", "fast"},
		Vars:       []VarDecl{{Name: "out", Type: Int, Kind: Output}},
		Initial:    "Run",
		States: []*State{
			{
				Name:    "Run",
				Initial: "Slow",
				Transitions: []Transition{
					{To: "Paused", Trigger: "pause"},
				},
				Children: []*State{
					{Name: "Slow", Entry: "out := 1", Transitions: []Transition{
						{To: "Fast", Trigger: "fast"},
					}},
					{Name: "Fast", Entry: "out := 2"},
				},
			},
			{
				Name: "Paused",
				Transitions: []Transition{
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
	m := NewMachine(cc)
	m.Step("fast")
	m.Step("pause")
	m.Step("resume")
	if m.ActiveState() != "Slow" || m.Get("out") != 1 {
		t.Fatalf("resume should enter Slow, got %q with out=%d", m.ActiveState(), m.Get("out"))
	}
}

// TestAppendConfigLayout pins AppendConfig's documented layout: leaf id,
// one saturated tick count per active-path state, and the requested
// variables.
func TestAppendConfigLayout(t *testing.T) {
	cc, err := modeChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	m.Step()
	m.Step("fast")
	m.Step() // Fast has been active for 2 ticks, its parent Run for 3
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	// State ids in document order: Run 0, Slow 1, Fast 2, Paused 3.
	want := slices.Concat(u32(2), u64(2), u64(3), u64(2))
	if got := m.AppendConfig(nil, 5, []int{0}); !bytes.Equal(got, want) {
		t.Fatalf("in Fast: got %x, want %x", got, want)
	}
	want = slices.Concat(u32(2), u64(2), u64(2), u64(2))
	if got := m.AppendConfig(nil, 2, []int{0}); !bytes.Equal(got, want) {
		t.Fatalf("in Fast, saturated at 2: got %x, want %x", got, want)
	}
	m.Step("pause")
	want = slices.Concat(u32(3), u64(1))
	if got := m.AppendConfig(nil, 5, nil); !bytes.Equal(got, want) {
		t.Fatalf("in Paused: got %x, want %x", got, want)
	}
}

func TestLeafTransitionBeatsParentTransition(t *testing.T) {
	c := &Chart{
		Name:       "shadow",
		TickPeriod: time.Millisecond,
		Events:     []string{"e"},
		Vars:       []VarDecl{{Name: "who", Type: Int, Kind: Output}},
		Initial:    "P",
		States: []*State{
			{
				Name:        "P",
				Initial:     "C",
				Transitions: []Transition{{To: "Other", Trigger: "e", Action: "who := 2"}},
				Children: []*State{
					{Name: "C", Transitions: []Transition{{To: "Other", Trigger: "e", Action: "who := 1"}}},
				},
			},
			{Name: "Other"},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	m.Step("e")
	if m.Get("who") != 1 {
		t.Fatalf("who=%d, leaf should win", m.Get("who"))
	}
}

func TestAfterTrigger(t *testing.T) {
	c := &Chart{
		Name:       "after",
		TickPeriod: time.Millisecond,
		Vars:       []VarDecl{{Name: "out", Type: Int, Kind: Output}},
		Initial:    "Wait",
		States: []*State{
			{Name: "Wait", Transitions: []Transition{
				{To: "Done", Trigger: "after(5, E_CLK)", Action: "out := 1"},
			}},
			{Name: "Done"},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
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
	c := &Chart{
		Name:       "livelock",
		TickPeriod: time.Millisecond,
		Initial:    "A",
		States: []*State{
			{Name: "A", Transitions: []Transition{{To: "B"}}},
			{Name: "B", Transitions: []Transition{{To: "A"}}},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	res := m.Step()
	if res.Err == nil {
		t.Fatal("expected livelock error")
	}
}

func TestCompileErrors(t *testing.T) {
	base := func() *Chart { return pumpChart() }
	cases := []struct {
		name   string
		mutate func(*Chart)
	}{
		{"empty name", func(c *Chart) { c.Name = "" }},
		{"zero tick", func(c *Chart) { c.TickPeriod = 0 }},
		{"dup state", func(c *Chart) { c.States = append(c.States, &State{Name: "Idle"}) }},
		{"dup event", func(c *Chart) { c.Events = append(c.Events, "i_BolusReq") }},
		{"dup var", func(c *Chart) {
			c.Vars = append(c.Vars, VarDecl{Name: "o_MotorState", Kind: Output})
		}},
		{"event-var clash", func(c *Chart) {
			c.Vars = append(c.Vars, VarDecl{Name: "i_BolusReq", Kind: Input})
		}},
		{"bad target", func(c *Chart) {
			c.States[0].Transitions[0].To = "Nowhere"
		}},
		{"undeclared trigger event", func(c *Chart) {
			c.States[0].Transitions[0].Trigger = "i_Ghost"
		}},
		{"bad guard", func(c *Chart) {
			c.States[0].Transitions[0].Guard = "1 +"
		}},
		{"guard refs unknown var", func(c *Chart) {
			c.States[0].Transitions[0].Guard = "ghost > 0"
		}},
		{"action writes input", func(c *Chart) {
			c.Vars = append(c.Vars, VarDecl{Name: "in1", Kind: Input})
			c.States[0].Transitions[0].Action = "in1 := 1"
		}},
		{"action writes unknown", func(c *Chart) {
			c.States[0].Transitions[0].Action = "ghost := 1"
		}},
		{"bad initial", func(c *Chart) { c.Initial = "Nowhere" }},
		{"leaf with initial", func(c *Chart) { c.States[0].Initial = "Idle" }},
	}
	for _, tc := range cases {
		c := base()
		tc.mutate(c)
		if _, err := c.Compile(); err == nil {
			t.Errorf("%s: Compile should fail", tc.name)
		}
	}
}

func TestInitialChildMustBeDirectChild(t *testing.T) {
	c := &Chart{
		Name:       "x",
		TickPeriod: time.Millisecond,
		Initial:    "P",
		States: []*State{
			{Name: "P", Initial: "Q", Children: []*State{{Name: "C"}}},
			{Name: "Q"},
		},
	}
	if _, err := c.Compile(); err == nil {
		t.Fatal("initial child of another scope should fail")
	}
}

func TestInitialDefaultsToFirstState(t *testing.T) {
	c := &Chart{
		Name:       "d",
		TickPeriod: time.Millisecond,
		States:     []*State{{Name: "First"}, {Name: "Second"}},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cc.InitialLeaf() != "First" {
		t.Fatalf("initial %q", cc.InitialLeaf())
	}
}

func TestActionErrorSurfacesInStepResult(t *testing.T) {
	c := &Chart{
		Name:       "err",
		TickPeriod: time.Millisecond,
		Events:     []string{"e"},
		Vars: []VarDecl{
			{Name: "d", Type: Int, Kind: Input},
			{Name: "out", Type: Int, Kind: Output},
		},
		Initial: "A",
		States: []*State{
			{Name: "A", Transitions: []Transition{
				{To: "B", Trigger: "e", Action: "out := 10 / d"},
			}},
			{Name: "B"},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
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
	m := NewMachine(compilePump(t))
	v := m.Vars()
	v["o_MotorState"] = 42
	if m.Get("o_MotorState") == 42 {
		t.Fatal("Vars must return a copy")
	}
}

func TestSetInputRejectsNonInput(t *testing.T) {
	m := NewMachine(compilePump(t))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetInput("o_MotorState", 1)
}

func TestUndeclaredEventPanicLeavesNoEventPending(t *testing.T) {
	m := NewMachine(compilePump(t))
	func() {
		defer func() { recover() }()
		m.Step("i_BolusReq", "i_Nonsense")
	}()
	if res := m.Step(); len(res.Taken) != 0 || m.ActiveState() != "Idle" {
		t.Fatalf("event from the rejected Step leaked: taken=%v active=%s", res.Taken, m.ActiveState())
	}
}

// TestRestoreAndStableStepAllocateNothing pins the model checker's hot
// path: Restore copies into the machine's own storage, and a Step on a
// tick where no transition fires touches no heap.
func TestRestoreAndStableStepAllocateNothing(t *testing.T) {
	for _, c := range []*Chart{pumpChart(), modeChart()} {
		cc, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine(cc)
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
