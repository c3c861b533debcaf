package coverage

import (
	"strings"
	"testing"
	"time"

	"rmtest/internal/codegen"
	"rmtest/internal/core"
	"rmtest/internal/fourvar"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

const ms = time.Millisecond

func pumpProgram(t *testing.T) *codegen.Program {
	t.Helper()
	cc, err := gpca.Chart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Generate(cc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTransitionCoverageFromTrace(t *testing.T) {
	p := pumpProgram(t)
	tt := fourvar.NewTransitionTrace()
	// Exercise the bolus chain only (indices 0 and 2 in document order).
	tt.Start(0, "Idle->BolusRequested", ms)
	tt.Finish(0, "Idle->BolusRequested", 2*ms, nil)
	tt.Start(2, "BolusRequested->Infusion", 2*ms)
	tt.Finish(2, "BolusRequested->Infusion", 3*ms, nil)
	tc := Transitions(p, tt)
	if tc.Total != 6 || tc.Covered != 2 {
		t.Fatalf("coverage: %+v", tc)
	}
	if tc.Counts["Idle->BolusRequested"] != 1 {
		t.Fatalf("counts: %v", tc.Counts)
	}
	if len(tc.Uncovered) != 4 {
		t.Fatalf("uncovered: %v", tc.Uncovered)
	}
	if r := tc.Ratio(); r < 0.33 || r > 0.34 {
		t.Fatalf("ratio: %v", r)
	}
}

func TestStateCoverage(t *testing.T) {
	p := pumpProgram(t)
	tt := fourvar.NewTransitionTrace()
	sc := States(p, tt)
	// Only the initial state entered.
	if sc.Covered != 1 || sc.Total != 4 {
		t.Fatalf("initial-only coverage: %+v", sc)
	}
	tt.Start(0, "Idle->BolusRequested", ms)
	tt.Finish(0, "Idle->BolusRequested", 2*ms, nil)
	sc = States(p, tt)
	if sc.Covered != 2 {
		t.Fatalf("after one transition: %+v", sc)
	}
	for _, u := range sc.Uncovered {
		if u == "Idle" || u == "BolusRequested" {
			t.Fatalf("covered state listed uncovered: %v", sc.Uncovered)
		}
	}
}

func TestPhaseCoverage(t *testing.T) {
	period := 40 * ms
	// All stimuli at the same phase: 1 bin hit.
	same := Phases([]sim.Time{5 * ms, 45 * ms, 85 * ms}, period, 8)
	if same.Ratio() != 1.0/8 {
		t.Fatalf("same-phase ratio %v", same.Ratio())
	}
	// Spread stimuli: full coverage.
	var spread []sim.Time
	for i := 0; i < 8; i++ {
		spread = append(spread, sim.Time(i)*5*ms+2*ms)
	}
	full := Phases(spread, period, 8)
	if full.Ratio() != 1 {
		t.Fatalf("spread ratio %v bins %v", full.Ratio(), full.Bins)
	}
	if len(full.EmptyBins()) != 0 {
		t.Fatalf("empty bins: %v", full.EmptyBins())
	}
	// Degenerate period.
	if Phases(spread, 0, 8).Ratio() != 0 {
		t.Fatal("zero period should yield zero coverage")
	}
}

func TestBoundaryCoverage(t *testing.T) {
	bound := 100 * ms
	samples := []core.SampleResult{
		{CObserved: true, Delay: 30 * ms},
		{CObserved: true, Delay: 95 * ms},
		{CObserved: true, Delay: 110 * ms},
		{CObserved: false}, // MAX: not counted
	}
	bc := Boundary(samples, bound, 0.2)
	if bc.Samples != 3 || bc.NearBound != 2 {
		t.Fatalf("boundary: %+v", bc)
	}
	if bc.ClosestBelow != 95*ms || bc.ClosestAbove != 110*ms {
		t.Fatalf("closest: %+v", bc)
	}
	if !bc.Adequate() {
		t.Fatal("should be adequate")
	}
	far := Boundary([]core.SampleResult{{CObserved: true, Delay: 10 * ms}}, bound, 0.2)
	if far.Adequate() {
		t.Fatal("far-from-bound suite should be inadequate")
	}
}

func TestMeasureEndToEnd(t *testing.T) {
	// Run a real M-testing pass on scheme 2 and measure adequacy.
	factory := gpca.Factory(func() platform.Scheme { return platform.DefaultScheme2() })
	runner, err := core.NewRunner(factory, gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	gen := core.Generator{N: 6, Start: 50 * ms, Spacing: 4500 * ms, Strategy: core.JitteredSpacing, Seed: 3}
	tcase, err := gen.Generate(gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	// Re-run at M level keeping the system so the transition trace is
	// available.
	sys, err := factory(platform.MLevel)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range tcase.Stimuli {
		sys.Env.PulseAt(at, gpca.SigBolusButton, 1, 0, gpca.ButtonPress)
	}
	sys.Run(tcase.Horizon(gpca.REQ1()))
	rm, err := runner.RunRM(tcase, true)
	if err != nil {
		t.Fatal(err)
	}
	rep := Measure(sys.Program(), sys.TransTrace, *rm.M, 40*ms, 8)
	// The bolus scenario exercises 3 of 6 transitions (request, start,
	// 4000-tick stop) and 3 of 4 states (EmptyAlarm unreachable without
	// the alarm stimulus).
	if rep.Transitions.Covered != 3 {
		t.Fatalf("transitions: %+v", rep.Transitions)
	}
	if rep.States.Covered != 3 {
		t.Fatalf("states: %+v", rep.States)
	}
	if rep.Phase.Ratio() <= 0 {
		t.Fatalf("phase: %+v", rep.Phase)
	}
	s := rep.String()
	for _, want := range []string{"transition coverage: 3/6", "state coverage:      3/4", "EmptyAlarm", "boundary coverage"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestSuggestTargetsEmptyBins(t *testing.T) {
	period := 40 * ms
	pc := Phases([]sim.Time{2 * ms, 42 * ms}, period, 4) // only bin 0 hit
	extra := Suggest(pc, 10*time.Second, 5*time.Second)
	if len(extra) != 3 {
		t.Fatalf("suggestions: %v", extra)
	}
	// Each suggestion must land in a previously empty bin.
	after := Phases(append([]sim.Time{2 * ms}, extra...), period, 4)
	if after.Ratio() != 1 {
		t.Fatalf("suggestions did not complete coverage: %v", after.Bins)
	}
	// Suggestions keep the required spacing.
	last := 10 * time.Second
	for _, at := range extra {
		if at-last < 5*time.Second {
			t.Fatalf("spacing violated: %v after %v", at, last)
		}
		last = at
	}
}

func TestSuggestDegenerate(t *testing.T) {
	if Suggest(PhaseCoverage{}, 0, time.Second) != nil {
		t.Fatal("degenerate phase coverage should yield nothing")
	}
	full := Phases([]sim.Time{0, 10 * ms, 20 * ms, 30 * ms}, 40*ms, 4)
	if got := Suggest(full, 0, time.Second); len(got) != 0 {
		t.Fatalf("full coverage should yield nothing: %v", got)
	}
}

func TestTransitionHints(t *testing.T) {
	p := pumpProgram(t)
	tt := fourvar.NewTransitionTrace()
	// Cover only the bolus chain; the alarm transitions stay uncovered.
	tt.Start(0, "Idle->BolusRequested", ms)
	tt.Finish(0, "Idle->BolusRequested", 2*ms, nil)
	tc := Transitions(p, tt)
	hints := TransitionHints(p, tc)
	if len(hints) != len(tc.Uncovered) {
		t.Fatalf("hints=%d uncovered=%d", len(hints), len(tc.Uncovered))
	}
	joined := strings.Join(hints, "\n")
	for _, want := range []string{
		"raise i_EmptyAlarm while in Idle",
		"raise i_ClearAlarm while in EmptyAlarm",
		"dwell in Infusion for exactly 4000 ticks",
		"fires within 100 ticks of entry",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("hints missing %q:\n%s", want, joined)
		}
	}
}

func TestTransitionHintsNoneWhenFullyCovered(t *testing.T) {
	p := pumpProgram(t)
	tt := fourvar.NewTransitionTrace()
	for _, tr := range p.Trans {
		tt.Start(tr.ID, tr.Label, ms)
		tt.Finish(tr.ID, tr.Label, 2*ms, nil)
	}
	tc := Transitions(p, tt)
	if hints := TransitionHints(p, tc); len(hints) != 0 {
		t.Fatalf("hints for full coverage: %v", hints)
	}
}

// TestPhasesDegenerateInputs pins the defined-empty contract: a
// non-positive bin count or period yields a measurement with no bins —
// Ratio 0, no empty bins, nothing for Suggest to target — instead of a
// silently substituted default bin count.
func TestPhasesDegenerateInputs(t *testing.T) {
	stimuli := []sim.Time{5 * ms, 45 * ms, 85 * ms}
	for _, tc := range []struct {
		name   string
		period sim.Time
		bins   int
	}{
		{"zero bins", 40 * ms, 0},
		{"negative bins", 40 * ms, -3},
		{"zero period", 0, 8},
		{"negative period", -40 * ms, 8},
		{"both degenerate", 0, 0},
	} {
		pc := Phases(stimuli, tc.period, tc.bins)
		if len(pc.Bins) != 0 {
			t.Errorf("%s: got %d bins, want none", tc.name, len(pc.Bins))
		}
		if pc.Ratio() != 0 {
			t.Errorf("%s: ratio %v, want 0", tc.name, pc.Ratio())
		}
		if eb := pc.EmptyBins(); eb != nil {
			t.Errorf("%s: empty bins %v, want none", tc.name, eb)
		}
		if sug := Suggest(pc, 0, time.Second); sug != nil {
			t.Errorf("%s: suggested %v, want nothing", tc.name, sug)
		}
		if pc.Period != tc.period {
			t.Errorf("%s: period rewritten to %v", tc.name, pc.Period)
		}
	}
}

// TestMeasureDegeneratePhase: Measure with a degenerate phase
// configuration still measures the other three dimensions and returns
// the defined empty phase measurement.
func TestMeasureDegeneratePhase(t *testing.T) {
	prog := pumpProgram(t)
	tt := fourvar.NewTransitionTrace()
	tt.Start(0, "t0", 0)
	tt.Finish(0, "t0", ms, nil)
	m := core.MResult{Program: prog, TransTrace: tt}
	for _, rep := range []Report{
		Measure(prog, tt, m, 0, 8),
		Measure(prog, tt, m, 40*ms, 0),
	} {
		if len(rep.Phase.Bins) != 0 || rep.Phase.Ratio() != 0 {
			t.Errorf("degenerate phase config measured bins %v", rep.Phase.Bins)
		}
		if rep.Transitions.Covered != 1 {
			t.Errorf("transition coverage lost: %+v", rep.Transitions)
		}
		if rep.States.Covered == 0 {
			t.Error("state coverage lost")
		}
	}
}
