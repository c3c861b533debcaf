package lint_test

import (
	"testing"
	"time"

	"rmtest/internal/codegen"
	"rmtest/internal/gpca"
	"rmtest/internal/lint"
	"rmtest/internal/railcrossing"
	"rmtest/internal/statechart"
)

func analyze(t *testing.T, c *statechart.Chart) *lint.Report {
	t.Helper()
	rep, err := lint.Analyze(c, codegen.DefaultCostModel())
	if err != nil {
		t.Fatalf("Analyze(%s): %v", c.Name, err)
	}
	return rep
}

func TestGPCALintsClean(t *testing.T) {
	rep := analyze(t, gpca.Chart())
	if len(rep.Findings) != 0 {
		t.Fatalf("gpca chart should lint clean, got:\n%s", rep)
	}
}

func TestExtendedGPCALintsClean(t *testing.T) {
	rep := analyze(t, gpca.ExtendedChart())
	if len(rep.Findings) != 0 {
		t.Fatalf("gpca_ext chart should lint clean, got:\n%s", rep)
	}
}

func TestRailcrossingLintsClean(t *testing.T) {
	rep := analyze(t, railcrossing.Chart())
	if len(rep.Findings) != 0 {
		t.Fatalf("crossing chart should lint clean, got:\n%s", rep)
	}
}

// TestGPCAWCETValues pins the static bounds for the Fig. 2 pump to the
// values implied by the default cost model, so regressions in the cost
// accounting are caught exactly.
func TestGPCAWCETValues(t *testing.T) {
	rep := analyze(t, gpca.Chart())
	us := time.Microsecond
	wantFire := map[string]time.Duration{
		"Idle->BolusRequested":     40 * us, // PerTransition only
		"Idle->EmptyAlarm":         52 * us, // + 4 action nodes
		"BolusRequested->Infusion": 58 * us, // + 6 action nodes
		"Infusion->Idle":           46 * us, // + 2 action nodes
		"Infusion->EmptyAlarm":     52 * us,
		"EmptyAlarm->Idle":         46 * us,
	}
	seen := map[string]time.Duration{}
	for _, tw := range rep.WCET.Transitions {
		seen[tw.Label] = tw.Fire
	}
	for label, want := range wantFire {
		if seen[label] != want {
			t.Errorf("fire WCET of %s = %v, want %v", label, seen[label], want)
		}
	}
	if rep.WCET.MaxTransition != 58*us {
		t.Errorf("MaxTransition = %v, want 58µs", rep.WCET.MaxTransition)
	}
	if rep.WCET.MaxTransitionLabel != "BolusRequested->Infusion" {
		t.Errorf("MaxTransitionLabel = %q", rep.WCET.MaxTransitionLabel)
	}
	// Worst triggered step starts at the BolusRequested leaf with every
	// event pending: before(100) fires, the chain loops through Infusion,
	// EmptyAlarm and Idle back to BolusRequested on the still-pending
	// i_BolusReq, and before(100) fires again —
	// StepBase + 58 + 52 + 46 + 40 + 58 + 46.
	if rep.WCET.StepTriggered != 320*us {
		t.Errorf("StepTriggered = %v, want 320µs", rep.WCET.StepTriggered)
	}
	// Worst quiescent step: StepBase + before(100) fire + at(4000) fire.
	if rep.WCET.StepQuiescent != 124*us {
		t.Errorf("StepQuiescent = %v, want 124µs", rep.WCET.StepQuiescent)
	}
	if rep.WCET.ChainCapped {
		t.Error("ChainCapped should be false for the pump chart")
	}
	// Invocation composes triggered + catch-up ticks.
	if got, want := rep.WCET.Invocation(25*time.Millisecond), 320*us+24*124*us; got != want {
		t.Errorf("Invocation(25ms) = %v, want %v", got, want)
	}
	tk := rep.WCET.Task("codeM", 2, 25*time.Millisecond)
	if tk.WCET != rep.WCET.Invocation(25*time.Millisecond) || tk.Period != 25*time.Millisecond {
		t.Errorf("Task packaging wrong: %+v", tk)
	}
}

// badChart is a purpose-built fixture tripping every chart-level finding
// code at least once.
func badChart() *statechart.Chart {
	return &statechart.Chart{
		Name: "badchart",
		// A 30µs tick is shorter than any transition's 40µs base charge,
		// so every reachable transition also trips wcet-exceeds-tick.
		TickPeriod: 30 * time.Microsecond,
		Events:     []string{"e_used", "e_unused"},
		Vars: []statechart.VarDecl{
			{Name: "i_in", Type: statechart.Int, Kind: statechart.Input},
			{Name: "i_unused", Type: statechart.Int, Kind: statechart.Input},
			{Name: "o_out", Type: statechart.Int, Kind: statechart.Output},
			{Name: "l_read", Type: statechart.Int, Kind: statechart.Local},
			{Name: "l_dead", Type: statechart.Int, Kind: statechart.Local},
			{Name: "l_div", Type: statechart.Int, Kind: statechart.Local},
		},
		// No Initial: implicit-initial at chart level.
		States: []*statechart.State{
			{Name: "A", Transitions: []statechart.Transition{
				// Always-false guard (l_read is pinned to 0): unreachable-transition.
				{To: "B", Trigger: "e_used", Guard: "l_read > 0", Label: "t1"},
				// Overlapping satisfiable guards on one event: nondeterministic-guards.
				{To: "B", Trigger: "e_used", Guard: "i_in > 0", Label: "t2"},
				{To: "B", Trigger: "e_used", Guard: "i_in > 1", Label: "t3"},
				// Triggerless and unguarded: shadows t5, and forms an
				// instant cycle with t10 (livelock-cycle).
				{To: "Comp", Label: "t4"},
				{To: "B", Trigger: "e_used", Label: "t5"},
			}},
			{Name: "B", Transitions: []statechart.Transition{
				{To: "A", Trigger: "before(5, E_CLK)", Action: "l_dead := 1", Label: "t6"},
				// before(0) is never enabled: temporal-constant, and C
				// becomes unreachable.
				{To: "C", Trigger: "before(0, E_CLK)", Label: "t7"},
				// l_div is pinned to 0: div-by-zero.
				{To: "Sink", Trigger: "after(10, E_CLK)", Guard: "10 / l_div > 0", Label: "t8"},
			}},
			{Name: "C", Transitions: []statechart.Transition{
				{To: "A", Trigger: "e_used", Label: "t9"},
			}},
			{Name: "Sink"}, // reachable leaf with no way out: sink-state
			{Name: "Comp", // no Initial: implicit-initial on a composite
				Children: []*statechart.State{
					{Name: "X", Transitions: []statechart.Transition{
						{To: "A", Trigger: "before(3, E_CLK)", Label: "t10"},
					}},
					// Entering Comp descends to X and no transition
					// targets Y: unreachable-state.
					{Name: "Y"},
				}},
		},
	}
}

func TestBadChartTriggersEveryChartCode(t *testing.T) {
	rep := analyze(t, badChart())
	got := map[string]bool{}
	for _, f := range rep.Findings {
		got[f.Code] = true
	}
	want := []string{
		lint.CodeUnreachableState,
		lint.CodeUnreachableTransition,
		lint.CodeNondetGuards,
		lint.CodeReadUnwritten,
		lint.CodeDeadWrite,
		lint.CodeUnusedEvent,
		lint.CodeUnusedInput,
		lint.CodeUnwrittenOutput,
		lint.CodeTemporalConstant,
		lint.CodeSinkState,
		lint.CodeImplicitInitial,
		lint.CodeLivelock,
		lint.CodeDivByZero,
		lint.CodeWCETExceedsTick,
	}
	for _, code := range want {
		if !got[code] {
			t.Errorf("bad chart did not trigger %s; report:\n%s", code, rep)
		}
	}
	if len(rep.Fatal()) == 0 {
		t.Error("bad chart should have fatal findings")
	}
	if !rep.WCET.ChainCapped {
		t.Error("instant cycle should cap the chain exploration")
	}
}

// TestAnalyzeProgramStackBalance covers the bytecode-only entry point and
// the stack-discipline faults the compiler can never emit.
func TestAnalyzeProgramStackBalance(t *testing.T) {
	cm := codegen.DefaultCostModel()
	cases := []struct {
		name string
		code []codegen.Instr
		ref  codegen.CodeRef
		kind string // "entry" places the ref as an action fragment
	}{
		{
			name: "action leaves a value",
			code: []codegen.Instr{{Op: codegen.OpPush, A: 1}, {Op: codegen.OpHalt}},
			ref:  codegen.CodeRef{PC: 0, Len: 2, Nodes: 1},
		},
		{
			name: "underflow",
			code: []codegen.Instr{{Op: codegen.OpAdd}, {Op: codegen.OpHalt}},
			ref:  codegen.CodeRef{PC: 0, Len: 2, Nodes: 1},
		},
		{
			name: "jump escapes fragment",
			code: []codegen.Instr{{Op: codegen.OpJmp, A: 99}, {Op: codegen.OpHalt}},
			ref:  codegen.CodeRef{PC: 0, Len: 2, Nodes: 1},
		},
		{
			name: "bad opcode",
			code: []codegen.Instr{{Op: codegen.Op(250)}, {Op: codegen.OpHalt}},
			ref:  codegen.CodeRef{PC: 0, Len: 2, Nodes: 1},
		},
	}
	for _, tc := range cases {
		prog := &codegen.Program{
			ChartName: "badprog",
			States: []codegen.StateRow{
				{ID: 0, Name: "S", Parent: -1, Initial: -1, Entry: tc.ref},
			},
			Code: tc.code,
		}
		rep := lint.AnalyzeProgram(prog, cm)
		found := false
		for _, f := range rep.Findings {
			if f.Code == lint.CodeStackBalance && f.Severity == lint.Fatal {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: expected a fatal stack-balance finding, got:\n%s", tc.name, rep)
		}
	}
}

// TestAnalyzeProgramDivByZero checks the interval domain on a hand-built
// guard fragment.
func TestAnalyzeProgramDivByZero(t *testing.T) {
	prog := &codegen.Program{
		ChartName: "divprog",
		States: []codegen.StateRow{
			{ID: 0, Name: "S", Parent: -1, Initial: -1, Trans: []int{0}},
		},
		Trans: []codegen.TransRow{
			{ID: 0, From: 0, To: 0, Label: "S->S",
				Trig:  codegen.TrigCode{Kind: statechart.TrigEvent, Event: 0},
				Guard: codegen.CodeRef{PC: 0, Len: 4, Nodes: 3}},
		},
		Events: []string{"e"},
		Code: []codegen.Instr{
			{Op: codegen.OpPush, A: 1},
			{Op: codegen.OpPush, A: 0},
			{Op: codegen.OpDiv},
			{Op: codegen.OpHalt},
		},
	}
	rep := lint.AnalyzeProgram(prog, codegen.DefaultCostModel())
	found := false
	for _, f := range rep.Findings {
		if f.Code == lint.CodeDivByZero && f.Severity == lint.Fatal {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a fatal div-by-zero finding, got:\n%s", rep)
	}
}

// TestAnalyzeProgramMalformedTables rejects dangling table ids.
func TestAnalyzeProgramMalformedTables(t *testing.T) {
	prog := &codegen.Program{
		ChartName: "tables",
		States: []codegen.StateRow{
			{ID: 0, Name: "S", Parent: -1, Initial: -1, Trans: []int{0}},
		},
		Trans: []codegen.TransRow{
			{ID: 0, From: 0, To: 7, Label: "S->?"}, // dangling target
		},
	}
	rep := lint.AnalyzeProgram(prog, codegen.DefaultCostModel())
	if len(rep.Fatal()) == 0 {
		t.Fatalf("expected a fatal finding for malformed tables, got:\n%s", rep)
	}
}

// TestLoopingBytecodeTerminates feeds the abstract interpreter a backward
// jump (which the compiler never emits) and checks that widening
// terminates the analysis without findings beyond the expected ones.
func TestLoopingBytecodeTerminates(t *testing.T) {
	// x = 0; loop: x = x + 1; if x < 10 goto loop; -> leaves nothing (action)
	prog := &codegen.Program{
		ChartName: "loop",
		Vars: []codegen.VarSlot{
			{ID: 0, Name: "x", Kind: statechart.Local, Type: statechart.Int},
		},
		States: []codegen.StateRow{
			{ID: 0, Name: "S", Parent: -1, Initial: -1,
				Entry: codegen.CodeRef{PC: 0, Len: 8, Nodes: 4}},
		},
		Code: []codegen.Instr{
			{Op: codegen.OpPush, A: 0},
			{Op: codegen.OpStore, A: 0},
			{Op: codegen.OpLoad, A: 0}, // loop head
			{Op: codegen.OpPush, A: 1},
			{Op: codegen.OpAdd},
			{Op: codegen.OpStore, A: 0},
			{Op: codegen.OpLoad, A: 0},
			// jump back to the loop head while x may be < 10
			{Op: codegen.OpJmpTrue, A: 2},
		},
	}
	done := make(chan *lint.Report, 1)
	go func() { done <- lint.AnalyzeProgram(prog, codegen.DefaultCostModel()) }()
	select {
	case rep := <-done:
		for _, f := range rep.Findings {
			if f.Code == lint.CodeStackBalance {
				t.Errorf("looping-but-balanced bytecode should not fault: %s", f)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("abstract interpreter did not terminate on looping bytecode")
	}
}
