package codegen

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rmtest/internal/interp"
	"rmtest/internal/randchart"
	"rmtest/internal/sim"
	"rmtest/internal/statechart"
)

// pumpChart is the Fig. 2 model (see statechart tests for the annotated
// version).
func pumpChart() *statechart.Chart {
	return &statechart.Chart{
		Name:       "pump",
		TickPeriod: time.Millisecond,
		Events:     []string{"i_BolusReq", "i_EmptyAlarm", "i_ClearAlarm"},
		Vars: []statechart.VarDecl{
			{Name: "o_MotorState", Type: statechart.Int, Kind: statechart.Output},
			{Name: "o_BuzzerState", Type: statechart.Bool, Kind: statechart.Output},
		},
		Initial: "Idle",
		States: []*statechart.State{
			{Name: "Idle", Transitions: []statechart.Transition{
				{To: "BolusRequested", Trigger: "i_BolusReq"},
				{To: "EmptyAlarm", Trigger: "i_EmptyAlarm", Action: "o_MotorState := 0; o_BuzzerState := 1"},
			}},
			{Name: "BolusRequested", Transitions: []statechart.Transition{
				{To: "Infusion", Trigger: "before(100, E_CLK)", Action: "o_MotorState := 1"},
			}},
			{Name: "Infusion", Transitions: []statechart.Transition{
				{To: "Idle", Trigger: "at(4000, E_CLK)", Action: "o_MotorState := 0"},
				{To: "EmptyAlarm", Trigger: "i_EmptyAlarm", Action: "o_MotorState := 0; o_BuzzerState := 1"},
			}},
			{Name: "EmptyAlarm", Transitions: []statechart.Transition{
				{To: "Idle", Trigger: "i_ClearAlarm", Action: "o_BuzzerState := 0"},
			}},
		},
	}
}

func compileProgram(t *testing.T, c *statechart.Chart) (*statechart.Compiled, *Program) {
	t.Helper()
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(cc)
	if err != nil {
		t.Fatal(err)
	}
	return cc, p
}

func TestGenerateTables(t *testing.T) {
	_, p := compileProgram(t, pumpChart())
	if len(p.States) != 4 || len(p.Trans) != 6 || len(p.Events) != 3 || len(p.Vars) != 2 {
		t.Fatalf("tables: %d states %d trans %d events %d vars",
			len(p.States), len(p.Trans), len(p.Events), len(p.Vars))
	}
	idle, ok := p.StateID("Idle")
	if !ok || p.InitState != idle {
		t.Fatalf("init state %d", p.InitState)
	}
	// Priority order preserved: Idle's first transition targets
	// BolusRequested.
	first := p.Trans[p.States[idle].Trans[0]]
	if p.States[first.To].Name != "BolusRequested" {
		t.Fatalf("priority order lost: first target %s", p.States[first.To].Name)
	}
	if _, ok := p.EventID("i_BolusReq"); !ok {
		t.Fatal("event id missing")
	}
	if _, ok := p.VarID("o_MotorState"); !ok {
		t.Fatal("var id missing")
	}
}

func TestExecBolusScenario(t *testing.T) {
	_, p := compileProgram(t, pumpChart())
	e := NewExec(p, ZeroCostModel(), nil, nil)
	res := e.Step(e.EventMask("i_BolusReq"))
	if len(res.Taken) != 2 {
		t.Fatalf("taken=%v", res.Taken)
	}
	if e.ActiveState() != "Infusion" || e.Get("o_MotorState") != 1 {
		t.Fatalf("state=%s motor=%d", e.ActiveState(), e.Get("o_MotorState"))
	}
	for i := 0; i < 4000; i++ {
		res = e.Step(0)
	}
	if e.ActiveState() != "Idle" || e.Get("o_MotorState") != 0 {
		t.Fatalf("after 4000 ticks: state=%s motor=%d", e.ActiveState(), e.Get("o_MotorState"))
	}
	if e.TransitionsTaken() != 3 {
		t.Fatalf("transitions=%d", e.TransitionsTaken())
	}
}

// differential runs the interpreter and the generated code side by side on
// the same event sequence and requires identical observable behaviour.
func differential(t *testing.T, c *statechart.Chart, seq [][]string) {
	t.Helper()
	cc, p := compileProgram(t, c)
	m := interp.NewMachine(cc)
	e := NewExec(p, ZeroCostModel(), nil, nil)
	for i, events := range seq {
		mres := m.Step(events...)
		eres := e.Step(e.EventMask(events...))
		if (mres.Err == nil) != (eres.Err == nil) {
			t.Fatalf("step %d: err mismatch %v vs %v", i, mres.Err, eres.Err)
		}
		if diff := takenDiff(p, mres.Taken, eres.Taken); diff != "" {
			t.Fatalf("step %d: %s", i, diff)
		}
		if m.ActiveState() != e.ActiveState() {
			t.Fatalf("step %d: state %s vs %s", i, m.ActiveState(), e.ActiveState())
		}
		mv, ev := m.Vars(), e.Vars()
		for k, v := range mv {
			if ev[k] != v {
				t.Fatalf("step %d: var %s: %d vs %d", i, k, v, ev[k])
			}
		}
	}
}

// takenDiff describes how the executor's taken transition ids differ
// from the interpreter's taken transitions, or returns "" if they agree:
// the same ids in the same order, and for each the source, target and
// label that the interpreter names and the program's tables hold.
func takenDiff(p *Program, want []interp.TakenTransition, got []int) string {
	if len(want) != len(got) {
		return fmt.Sprintf("taken %v vs ids %v", want, got)
	}
	for j, id := range got {
		if id < 0 || id >= len(p.Trans) {
			return fmt.Sprintf("transition %d: id %d out of range", j, id)
		}
		t := p.Trans[id]
		g := interp.TakenTransition{Index: id, From: p.States[t.From].Name, To: p.States[t.To].Name, Label: t.Label}
		if g != want[j] {
			return fmt.Sprintf("transition %d: %+v vs %+v", j, want[j], g)
		}
	}
	return ""
}

func TestDifferentialPumpScripted(t *testing.T) {
	seq := [][]string{
		{"i_BolusReq"}, {}, {}, {"i_EmptyAlarm"}, {}, {"i_ClearAlarm"},
		{"i_BolusReq"}, {"i_BolusReq"}, {}, {"i_ClearAlarm"}, {"i_EmptyAlarm"},
	}
	differential(t, pumpChart(), seq)
}

func TestDifferentialPumpRandom(t *testing.T) {
	events := []string{"i_BolusReq", "i_EmptyAlarm", "i_ClearAlarm"}
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16%300) + 1
		r := sim.NewRand(seed)
		seq := make([][]string, n)
		for i := range seq {
			var evs []string
			for _, e := range events {
				if r.Bool(0.15) {
					evs = append(evs, e)
				}
			}
			seq[i] = evs
		}
		cc, err := pumpChart().Compile()
		if err != nil {
			return false
		}
		p, err := Generate(cc)
		if err != nil {
			return false
		}
		m := interp.NewMachine(cc)
		e := NewExec(p, ZeroCostModel(), nil, nil)
		for _, evs := range seq {
			mres := m.Step(evs...)
			eres := e.Step(e.EventMask(evs...))
			if takenDiff(p, mres.Taken, eres.Taken) != "" || m.ActiveState() != e.ActiveState() {
				return false
			}
			if m.Get("o_MotorState") != e.Get("o_MotorState") ||
				m.Get("o_BuzzerState") != e.Get("o_BuzzerState") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func hierChart() *statechart.Chart {
	return &statechart.Chart{
		Name:       "hier",
		TickPeriod: time.Millisecond,
		Events:     []string{"go", "abort", "inner", "tick2"},
		Vars: []statechart.VarDecl{
			{Name: "level", Type: statechart.Int, Kind: statechart.Input},
			{Name: "out", Type: statechart.Int, Kind: statechart.Output},
			{Name: "count", Type: statechart.Int, Kind: statechart.Local},
		},
		Initial: "Off",
		States: []*statechart.State{
			{Name: "Off", Transitions: []statechart.Transition{
				{To: "On", Trigger: "go", Guard: "level >= 0"},
			}},
			{
				Name:        "On",
				Initial:     "Slow",
				Entry:       "out := 10",
				Transitions: []statechart.Transition{{To: "Off", Trigger: "abort", Action: "out := 0"}},
				Children: []*statechart.State{
					{Name: "Slow", Transitions: []statechart.Transition{
						{To: "Fast", Trigger: "inner", Guard: "level > 3 && level < 100"},
						{To: "Fast", Trigger: "after(5, E_CLK)", Action: "out := out + 100"},
					}},
					{Name: "Fast",
						Entry: "count := count + 1",
						Exit:  "out := out + 1",
						Transitions: []statechart.Transition{
							{To: "Slow", Trigger: "tick2", Guard: "level % 2 == 0 || count > 10"},
						}},
				},
			},
		},
	}
}

func TestDifferentialHierarchicalRandom(t *testing.T) {
	events := []string{"go", "abort", "inner", "tick2"}
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16%200) + 1
		r := sim.NewRand(seed)
		cc, err := hierChart().Compile()
		if err != nil {
			return false
		}
		p, err := Generate(cc)
		if err != nil {
			return false
		}
		m := interp.NewMachine(cc)
		e := NewExec(p, ZeroCostModel(), nil, nil)
		for i := 0; i < n; i++ {
			var evs []string
			for _, ev := range events {
				if r.Bool(0.2) {
					evs = append(evs, ev)
				}
			}
			lvl := int64(r.Intn(12))
			m.SetInput("level", lvl)
			e.SetInput("level", lvl)
			mres := m.Step(evs...)
			eres := e.Step(e.EventMask(evs...))
			if takenDiff(p, mres.Taken, eres.Taken) != "" || m.ActiveState() != e.ActiveState() {
				return false
			}
			if m.Get("out") != e.Get("out") || m.Get("count") != e.Get("count") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// envStub implements ExecEnv accumulating charged CPU time.
type envStub struct {
	t time.Duration
}

func (s *envStub) Compute(d time.Duration) { s.t += d }
func (s *envStub) Now() time.Duration      { return s.t }

func TestCostModelCharges(t *testing.T) {
	_, p := compileProgram(t, pumpChart())
	env := &envStub{}
	e := NewExec(p, DefaultCostModel(), env, nil)
	e.Step(e.EventMask("i_BolusReq"))
	if env.t == 0 {
		t.Fatal("no CPU charged")
	}
	base := env.t
	// A stable tick charges less than a transition-taking tick.
	env2 := &envStub{}
	e2 := NewExec(p, DefaultCostModel(), env2, nil)
	e2.Step(0)
	if env2.t >= base {
		t.Fatalf("stable tick %v should cost less than transition tick %v", env2.t, base)
	}
}

type recListener struct {
	starts, finishes []string
	startAt          []time.Duration
	finishAt         []time.Duration
	changed          [][]statechart.VarChange
}

func (l *recListener) TransitionStart(id int, label string, at time.Duration) {
	l.starts = append(l.starts, label)
	l.startAt = append(l.startAt, at)
}
func (l *recListener) TransitionFinish(id int, label string, at time.Duration, ch []statechart.VarChange) {
	l.finishes = append(l.finishes, label)
	l.finishAt = append(l.finishAt, at)
	l.changed = append(l.changed, ch)
}

func TestListenerObservesTransitionBoundaries(t *testing.T) {
	_, p := compileProgram(t, pumpChart())
	env := &envStub{}
	l := &recListener{}
	e := NewExec(p, DefaultCostModel(), env, l)
	e.Step(e.EventMask("i_BolusReq"))
	if len(l.starts) != 2 || len(l.finishes) != 2 {
		t.Fatalf("starts=%v finishes=%v", l.starts, l.finishes)
	}
	if l.starts[0] != "Idle->BolusRequested" || l.starts[1] != "BolusRequested->Infusion" {
		t.Fatalf("starts=%v", l.starts)
	}
	// Each transition takes non-zero time and they do not overlap.
	for i := range l.starts {
		if l.finishAt[i] <= l.startAt[i] {
			t.Fatalf("transition %d: finish %v <= start %v", i, l.finishAt[i], l.startAt[i])
		}
	}
	if l.startAt[1] < l.finishAt[0] {
		t.Fatal("transitions overlap")
	}
	// The second transition (BolusRequested->Infusion) wrote the motor output.
	if len(l.changed[1]) != 1 || l.changed[1][0].Name != "o_MotorState" || l.changed[1][0].To != 1 {
		t.Fatalf("changed=%v", l.changed)
	}
	if len(l.changed[0]) != 0 {
		t.Fatalf("first transition should not change outputs: %v", l.changed[0])
	}
}

func TestDisassembleDeterministic(t *testing.T) {
	_, p1 := compileProgram(t, pumpChart())
	_, p2 := compileProgram(t, pumpChart())
	d1, d2 := p1.Disassemble(), p2.Disassemble()
	if d1 != d2 {
		t.Fatal("disassembly differs across identical compiles")
	}
	for _, want := range []string{"state", "trans", "Idle->BolusRequested", "before(100)", "o_MotorState"} {
		if !strings.Contains(d1, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, d1)
		}
	}
}

func TestEmitGoContainsExpectedShapes(t *testing.T) {
	cc, err := pumpChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := EmitGo(&b, cc, "pumpgen"); err != nil {
		t.Fatal(err)
	}
	src := b.String()
	for _, want := range []string{
		"package pumpgen",
		"type PumpState int",
		"PumpIdle PumpState = 0",
		"EvIBolusReq",
		"func (c *Pump) Step(events PumpEvent) int",
		"c.OMotorState = 1",
		"c.tick-c.entry[2] == 4000",
		"DO NOT EDIT",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("emitted code missing %q:\n%s", want, src)
		}
	}
	// Deterministic emission.
	var b2 strings.Builder
	if err := EmitGo(&b2, cc, "pumpgen"); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("emission not deterministic")
	}
}

func TestEmitGoGuards(t *testing.T) {
	cc, err := hierChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := EmitGo(&b, cc, "hiergen"); err != nil {
		t.Fatal(err)
	}
	src := b.String()
	if !strings.Contains(src, "b2i(") {
		t.Fatalf("guard decompilation missing:\n%s", src)
	}
	if !strings.Contains(src, "&&") {
		t.Fatalf("short-circuit guard missing:\n%s", src)
	}
	if strings.Contains(src, "unrepresentable") {
		t.Fatalf("decompiler gave up:\n%s", src)
	}
}

func TestRuntimeHelpersCompileShapes(t *testing.T) {
	for _, h := range runtimeHelpers {
		if !strings.HasPrefix(h.src, "func "+h.name+"(") {
			t.Fatalf("helper %s is defined as:\n%s", h.name, h.src)
		}
	}
}

func TestTooManyEventsRejected(t *testing.T) {
	c := &statechart.Chart{
		Name:       "wide",
		TickPeriod: time.Millisecond,
		States:     []*statechart.State{{Name: "S"}},
	}
	for i := 0; i < 65; i++ {
		c.Events = append(c.Events, "e"+string(rune('A'+i/26))+string(rune('a'+i%26)))
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(cc); err == nil {
		t.Fatal("expected event-count error")
	}
}

func TestExecResetRestoresInitialState(t *testing.T) {
	_, p := compileProgram(t, pumpChart())
	e := NewExec(p, ZeroCostModel(), nil, nil)
	e.Step(e.EventMask("i_BolusReq"))
	e.Reset()
	if e.ActiveState() != "Idle" || e.Get("o_MotorState") != 0 || e.Tick() != 0 {
		t.Fatalf("reset failed: %s %d %d", e.ActiveState(), e.Get("o_MotorState"), e.Tick())
	}
}

func TestVMShortCircuitAvoidsDivByZero(t *testing.T) {
	c := &statechart.Chart{
		Name:       "sc",
		TickPeriod: time.Millisecond,
		Events:     []string{"e"},
		Vars: []statechart.VarDecl{
			{Name: "d", Type: statechart.Int, Kind: statechart.Input},
			{Name: "out", Type: statechart.Int, Kind: statechart.Output},
		},
		Initial: "A",
		States: []*statechart.State{
			{Name: "A", Transitions: []statechart.Transition{
				{To: "B", Trigger: "e", Guard: "d != 0 && 10 / d > 1", Action: "out := 1"},
			}},
			{Name: "B"},
		},
	}
	_, p := compileProgram(t, c)
	e := NewExec(p, ZeroCostModel(), nil, nil)
	e.SetInput("d", 0)
	res := e.Step(e.EventMask("e"))
	if res.Err != nil {
		t.Fatalf("short circuit failed: %v", res.Err)
	}
	if e.ActiveState() != "A" {
		t.Fatal("guard should be false")
	}
	e.SetInput("d", 5)
	res = e.Step(e.EventMask("e"))
	if res.Err != nil || e.ActiveState() != "B" {
		t.Fatalf("err=%v state=%s", res.Err, e.ActiveState())
	}
}

// TestExecStepSteadyStateAllocs is the regression gate for the output
// snapshot/diff scratch: a Step that takes no transition must not touch
// the heap at all.
func TestExecStepSteadyStateAllocs(t *testing.T) {
	r := sim.NewRand(3)
	cc, err := randchart.Chart(r).Compile()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Generate(cc)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(prog, DefaultCostModel(), nil, nil)
	e.Step(0) // settle entry actions
	if avg := testing.AllocsPerRun(1000, func() { e.Step(0) }); avg != 0 {
		t.Errorf("steady-state Step allocates %.2f allocs/op, want 0", avg)
	}
}
