package core_test

import (
	"strings"
	"testing"
	"time"

	"rmtest/internal/core"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

const ms = time.Millisecond

func scheme1Factory() core.SystemFactory {
	return gpca.Factory(func() platform.Scheme { return platform.DefaultScheme1() })
}
func scheme2Factory() core.SystemFactory {
	return gpca.Factory(func() platform.Scheme { return platform.DefaultScheme2() })
}
func scheme3Factory() core.SystemFactory {
	return gpca.Factory(func() platform.Scheme { return platform.DefaultScheme3() })
}

func genCase(t *testing.T, n int, seed uint64) core.TestCase {
	t.Helper()
	g := core.Generator{
		N:        n,
		Start:    50 * ms,
		Spacing:  4500 * ms, // past the 4 s bolus duration and the 1 s timeout
		Strategy: core.JitteredSpacing,
		Jitter:   200 * ms,
		Seed:     seed,
	}
	tc, err := g.Generate(gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func TestGeneratorShapes(t *testing.T) {
	req := gpca.REQ1()
	uni, err := core.Generator{N: 5, Start: 10 * ms, Spacing: 2 * time.Second}.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	for k, at := range uni.Stimuli {
		if at != 10*ms+sim.Time(k)*2*time.Second {
			t.Fatalf("uniform stimuli wrong: %v", uni.Stimuli)
		}
	}
	jit, err := core.Generator{
		N: 5, Start: 10 * ms, Spacing: 2 * time.Second,
		Strategy: core.JitteredSpacing, Jitter: 100 * ms, Seed: 7,
	}.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	for k, at := range jit.Stimuli {
		base := 10*ms + sim.Time(k)*2*time.Second
		if at < base || at > base+100*ms {
			t.Fatalf("jitter out of range: %v", jit.Stimuli)
		}
	}
	// Determinism: same seed, same case.
	jit2, _ := core.Generator{
		N: 5, Start: 10 * ms, Spacing: 2 * time.Second,
		Strategy: core.JitteredSpacing, Jitter: 100 * ms, Seed: 7,
	}.Generate(req)
	for k := range jit.Stimuli {
		if jit.Stimuli[k] != jit2.Stimuli[k] {
			t.Fatal("jittered generation not deterministic")
		}
	}
	sweep, err := core.Generator{
		N: 5, Start: 0, Spacing: 2 * time.Second,
		Strategy: core.PhaseSweep, SweepPeriod: 25 * ms,
	}.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(sweep.Stimuli); k++ {
		phase := (sweep.Stimuli[k] - sweep.Stimuli[k-1]) - 2*time.Second
		if phase != 5*ms {
			t.Fatalf("sweep phases wrong: %v", sweep.Stimuli)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	req := gpca.REQ1()
	if _, err := (core.Generator{N: 0, Spacing: time.Second}).Generate(req); err == nil {
		t.Fatal("N=0 should fail")
	}
	if _, err := (core.Generator{N: 1}).Generate(req); err == nil {
		t.Fatal("no spacing should fail")
	}
	if _, err := (core.Generator{N: 1, Spacing: 10 * ms}).Generate(req); err == nil {
		t.Fatal("spacing below timeout should fail")
	}
	if _, err := (core.Generator{N: 1, Spacing: 2 * time.Second, Strategy: core.PhaseSweep}).Generate(req); err == nil {
		t.Fatal("sweep without period should fail")
	}
	bad := gpca.REQ1()
	bad.Bound = 0
	if _, err := (core.Generator{N: 1, Spacing: time.Second}).Generate(bad); err == nil {
		t.Fatal("invalid requirement should fail")
	}
}

func TestRequirementValidation(t *testing.T) {
	good := gpca.REQ1()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*core.Requirement){
		func(r *core.Requirement) { r.ID = "" },
		func(r *core.Requirement) { r.Stimulus.Signal = "" },
		func(r *core.Requirement) { r.Response.Signal = "" },
		func(r *core.Requirement) { r.Stimulus.Match.Fn = nil },
		func(r *core.Requirement) { r.Bound = 0 },
		func(r *core.Requirement) { r.Timeout = 10 * ms }, // below bound
	}
	for i, mutate := range cases {
		r := gpca.REQ1()
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestScheme1RTestingPasses(t *testing.T) {
	runner, err := core.NewRunner(scheme1Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	tc := genCase(t, 10, 1)
	res, err := runner.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.R.Passed() {
		t.Fatalf("scheme1 should satisfy REQ1; samples:\n%v", res.R.Samples)
	}
	if len(res.R.Samples) != 10 {
		t.Fatalf("samples=%d", len(res.R.Samples))
	}
	for _, s := range res.R.Samples {
		if !s.CObserved || s.Delay <= 0 || s.Delay > 100*ms {
			t.Fatalf("sample %v", s)
		}
	}
	if res.R.Scheme != "scheme1" {
		t.Fatalf("scheme=%q", res.R.Scheme)
	}
}

func TestScheme2RTestingPasses(t *testing.T) {
	runner, err := core.NewRunner(scheme2Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunRM(genCase(t, 10, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.R.Passed() {
		t.Fatalf("scheme2 should satisfy REQ1 by construction; samples:\n%v", res.R.Samples)
	}
}

func TestScheme3RTestingViolates(t *testing.T) {
	runner, err := core.NewRunner(scheme3Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunRM(genCase(t, 10, 3), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.R.Passed() {
		t.Fatalf("scheme3 should violate REQ1 under interference; samples:\n%v", res.R.Samples)
	}
	if len(res.R.Violations()) == 0 {
		t.Fatal("no violations reported")
	}
}

func TestMTestingSegmentsConsistentWithR(t *testing.T) {
	runner, err := core.NewRunner(scheme2Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	tc := genCase(t, 6, 4)
	rep, err := runner.RunRM(tc, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.M.Samples) != len(rep.R.Samples) {
		t.Fatal("sample count mismatch")
	}
	for i, m := range rep.M.Samples {
		r := rep.R.Samples[i]
		// The M samples annotate the R verdicts of the same run.
		if m.Delay != r.Delay || m.Verdict != r.Verdict {
			t.Fatalf("sample %d: M (%v,%v) vs R (%v,%v)", i, m.Delay, m.Verdict, r.Delay, r.Verdict)
		}
		if !m.SegmentsOK {
			t.Fatalf("sample %d: no segments", i)
		}
		seg := m.Segments
		if seg.Total() != m.Delay {
			t.Fatalf("sample %d: segment total %v != delay %v", i, seg.Total(), m.Delay)
		}
		if seg.InputDelay() <= 0 || seg.CodeDelay() <= 0 || seg.OutputDelay() <= 0 {
			t.Fatalf("sample %d: non-positive segment: %v", i, seg)
		}
		if len(seg.Transitions) != 2 {
			t.Fatalf("sample %d: transitions %v", i, seg.Transitions)
		}
	}
}

func TestRunRMLayering(t *testing.T) {
	// Scheme 1 passes: no M phase unless forced.
	r1, err := core.NewRunner(scheme1Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	tc := genCase(t, 4, 5)
	rep, err := r1.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.M != nil {
		t.Fatal("M-testing should not run when R passes")
	}
	rep, err = r1.RunRM(tc, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.M == nil {
		t.Fatal("forced M-testing missing")
	}
	// Scheme 3 fails: M phase and diagnosis follow automatically.
	r3, err := core.NewRunner(scheme3Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := r3.RunRM(genCase(t, 8, 6), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.R.Passed() {
		t.Fatal("expected violations")
	}
	if rep3.M == nil || len(rep3.Diagnosis) == 0 {
		t.Fatal("M-testing and diagnosis should follow violations")
	}
	for _, f := range rep3.Diagnosis {
		if f.Detail == "" {
			t.Fatalf("empty diagnosis: %+v", f)
		}
	}
}

func TestDiagnosisBlamesInterferenceSegments(t *testing.T) {
	r3, err := core.NewRunner(scheme3Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r3.RunRM(genCase(t, 10, 7), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.M == nil {
		t.Fatal("no M results")
	}
	// Every finding names a concrete segment or explains MAX.
	for _, f := range rep.Diagnosis {
		switch f.Verdict {
		case core.Fail:
			if f.Dominant == core.SegNone {
				t.Fatalf("fail without dominant segment: %+v", f)
			}
			if f.Share <= 0 || f.Share > 1 {
				t.Fatalf("share out of range: %+v", f)
			}
		case core.Max:
			if !strings.Contains(f.Detail, "never") && !strings.Contains(f.Detail, "lost") {
				t.Fatalf("MAX diagnosis unhelpful: %+v", f)
			}
		}
	}
}

func TestVerdictAndSampleStrings(t *testing.T) {
	if core.Pass.String() != "pass" || core.Fail.String() != "FAIL" || core.Max.String() != "MAX" {
		t.Fatal("verdict strings")
	}
	runner, _ := core.NewRunner(scheme1Factory(), gpca.REQ1())
	res, err := runner.RunRM(genCase(t, 1, 8), false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.R.Samples[0].String(), "delay=") {
		t.Fatalf("sample string: %s", res.R.Samples[0])
	}
	if !strings.Contains(gpca.REQ1().String(), "tc - tm <= 100ms") {
		t.Fatalf("requirement string: %s", gpca.REQ1())
	}
}

func TestStats(t *testing.T) {
	s := core.NewStats([]sim.Time{30 * ms, 10 * ms, 20 * ms, 40 * ms})
	if s.N != 4 || s.Min != 10*ms || s.Max != 40*ms || s.Mean != 25*ms {
		t.Fatalf("stats=%+v", s)
	}
	if s.P95 != 40*ms {
		t.Fatalf("p95=%v", s.P95)
	}
	if core.NewStats(nil).N != 0 {
		t.Fatal("empty stats")
	}
}

func TestSegmentStatsAggregation(t *testing.T) {
	runner, err := core.NewRunner(scheme2Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.RunRM(genCase(t, 8, 9), true)
	if err != nil {
		t.Fatal(err)
	}
	agg := core.NewSegmentStats(*rep.M)
	if agg.Total.N != 8 {
		t.Fatalf("aggregated %d samples", agg.Total.N)
	}
	if agg.Input.Mean <= 0 || agg.Code.Mean <= 0 || agg.Output.Mean <= 0 {
		t.Fatalf("agg=%+v", agg)
	}
	// Mean segment identity holds approximately (exact for these sums).
	sum := agg.Input.Mean + agg.Code.Mean + agg.Output.Mean
	diff := sum - agg.Total.Mean
	if diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("segment means inconsistent: %v vs %v", sum, agg.Total.Mean)
	}
}

func TestREQ2AlarmRequirement(t *testing.T) {
	runner, err := core.NewRunner(scheme1Factory(), gpca.REQ2())
	if err != nil {
		t.Fatal(err)
	}
	g := core.Generator{N: 3, Start: 100 * ms, Spacing: 2 * time.Second}
	tc, err := g.Generate(gpca.REQ2())
	if err != nil {
		t.Fatal(err)
	}
	// REQ2's stimulus is a persistent level; after the first alarm the
	// signal stays 1, so later samples see no fresh m-event. Use one
	// sample.
	tc.Stimuli = tc.Stimuli[:1]
	res, err := runner.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.R.Passed() {
		t.Fatalf("REQ2 should pass on scheme1: %v", res.R.Samples)
	}
	_ = tc
}

func TestRunnerValidation(t *testing.T) {
	if _, err := core.NewRunner(nil, gpca.REQ1()); err == nil {
		t.Fatal("nil factory should fail")
	}
	bad := gpca.REQ1()
	bad.ID = ""
	if _, err := core.NewRunner(scheme1Factory(), bad); err == nil {
		t.Fatal("invalid requirement should fail")
	}
}

func TestResponseExactlyAtBoundPasses(t *testing.T) {
	// The bound is inclusive (tc - tm <= bound).
	req := gpca.REQ1()
	runner, err := core.NewRunner(scheme1Factory(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunRM(core.TestCase{Stimuli: []sim.Time{77 * ms}}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := res.R.Samples[0]
	if s.Verdict != core.Pass {
		t.Fatalf("sanity: %v", s)
	}
	// Re-judge the same delay against a bound equal to it: still a pass.
	if s.Delay > 0 {
		req2 := req
		req2.Bound = s.Delay
		req2.Timeout = 10 * req2.Bound
		runner2, err := core.NewRunner(scheme1Factory(), req2)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := runner2.RunRM(core.TestCase{Stimuli: []sim.Time{77 * ms}}, false)
		if err != nil {
			t.Fatal(err)
		}
		if res2.R.Samples[0].Verdict != core.Pass {
			t.Fatalf("delay == bound must pass: %v", res2.R.Samples[0])
		}
		// And one nanosecond less must fail.
		req3 := req
		req3.Bound = s.Delay - 1
		req3.Timeout = 10 * req3.Bound
		runner3, err := core.NewRunner(scheme1Factory(), req3)
		if err != nil {
			t.Fatal(err)
		}
		res3, err := runner3.RunRM(core.TestCase{Stimuli: []sim.Time{77 * ms}}, false)
		if err != nil {
			t.Fatal(err)
		}
		if res3.R.Samples[0].Verdict != core.Fail {
			t.Fatalf("delay > bound must fail: %v", res3.R.Samples[0])
		}
	}
}

func TestTestCaseHorizonCoversTimeouts(t *testing.T) {
	req := gpca.REQ1()
	tc := core.TestCase{Stimuli: []sim.Time{time.Second, 3 * time.Second}}
	h := tc.Horizon(req)
	if h < 3*time.Second+req.EffectiveTimeout() {
		t.Fatalf("horizon %v too short", h)
	}
}

func TestEffectiveTimeoutDefault(t *testing.T) {
	r := gpca.REQ1()
	r.Timeout = 0
	if r.EffectiveTimeout() != 10*r.Bound {
		t.Fatalf("default timeout %v", r.EffectiveTimeout())
	}
}

func TestPhaseSweepEndToEnd(t *testing.T) {
	// PhaseSweep probes every alignment of the 25ms scheme-1 period; the
	// spread of observed delays across a sweep must exceed a single
	// phase's spread (zero).
	g := core.Generator{
		N: 5, Start: 50 * ms, Spacing: 4500 * ms,
		Strategy: core.PhaseSweep, SweepPeriod: 25 * ms,
	}
	tc, err := g.Generate(gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := core.NewRunner(scheme1Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	delays := map[sim.Time]bool{}
	for _, s := range res.R.Samples {
		if !s.CObserved {
			t.Fatalf("sweep sample lost: %v", s)
		}
		delays[s.Delay] = true
	}
	if len(delays) < 3 {
		t.Fatalf("phase sweep should produce varied delays: %v", delays)
	}
}

// Regression (issue 2, satellites 1+3): a stimulus that lands just before
// the previous stimulus' response must not be credited with that response.
// Before the fix, evaluate searched the c-stream by time alone, so the
// response to stimulus A could satisfy both A and a stimulus B pressed
// 100 microseconds before it arrived — inflating Pass counts exactly when
// the system is most stressed. The consuming search (each c-event credits
// one stimulus) and the deadline bound together force B to MAX.
func TestCloselySpacedStimuliNotDoubleCredited(t *testing.T) {
	req := gpca.REQ1()
	// A scheme-3 pipeline whose high-priority interference burst swallows
	// the whole press: the response then arrives after the button is
	// released, so a second press can land between release and response.
	factory := gpca.Factory(func() platform.Scheme {
		s := platform.DefaultScheme3()
		s.Interference = []platform.InterferenceTask{
			{Name: "netdrv", Prio: 4, Period: 500 * ms, Burst: 100 * ms},
		}
		return s
	})
	runner, err := core.NewRunner(factory, req)
	if err != nil {
		t.Fatal(err)
	}
	// Probe run: find when this pipeline actually answers a lone 50 ms press.
	probe, err := runner.RunRM(core.TestCase{Name: "probe", Stimuli: []sim.Time{50 * ms}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.R.Samples) != 1 || !probe.R.Samples[0].CObserved {
		t.Fatalf("probe sample lost: %v", probe.R.Samples)
	}
	cA := probe.R.Samples[0].CEvent.At
	if cA <= 50*ms+gpca.ButtonPress {
		// The scenario needs the response to arrive after press A is
		// released, so press B creates a fresh rising edge.
		t.Fatalf("pipeline answered during the press (c at %v); scenario assumptions broken", cA)
	}

	// Press B lands 100 microseconds before A's response; press C is far
	// enough out for a fresh bolus cycle.
	tc := core.TestCase{
		Name:    "closely-spaced",
		Stimuli: []sim.Time{50 * ms, cA - 100*time.Microsecond, 4600 * ms},
	}
	rep, err := runner.RunRM(tc, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.R.Samples) != 3 {
		t.Fatalf("samples=%d", len(rep.R.Samples))
	}
	a, b, c := rep.R.Samples[0], rep.R.Samples[1], rep.R.Samples[2]
	if !a.CObserved || a.Verdict == core.Max {
		t.Fatalf("sample A should be answered: %v", a)
	}
	if !b.MObserved {
		t.Fatalf("press B should register as an m-event: %v", b)
	}
	// The heart of the regression: B must not be credited with A's
	// response (pre-fix this was a 100 microsecond "Pass").
	if b.Verdict != core.Max {
		t.Fatalf("sample B stole sample A's response: %v", b)
	}
	if b.CObserved {
		t.Fatalf("sample B has no response of its own: %v", b)
	}
	if !c.CObserved || c.Verdict == core.Max {
		t.Fatalf("sample C should be answered on a fresh cycle: %v", c)
	}
	if a.CEvent.At == c.CEvent.At {
		t.Fatal("samples A and C must be credited with distinct responses")
	}

	// M-level invariant: every matched chain explains exactly the c-event
	// the R-verdict judged, and stays inside the requirement timeout.
	for _, s := range rep.M.Samples {
		if !s.SegmentsOK {
			continue
		}
		if s.Segments.C != s.CEvent {
			t.Fatalf("sample %d: chain explains c@%v but verdict judged c@%v",
				s.Index, s.Segments.C.At, s.CEvent.At)
		}
		if s.Segments.Total() > req.EffectiveTimeout() {
			t.Fatalf("sample %d: chain total %v exceeds timeout", s.Index, s.Segments.Total())
		}
	}
	if rep.M.Samples[1].SegmentsOK {
		t.Fatalf("sample B must have no conformant chain: %+v", rep.M.Samples[1].Segments)
	}
	if !rep.M.Samples[0].SegmentsOK || !rep.M.Samples[2].SegmentsOK {
		t.Fatalf("samples A and C should decompose: %v %v",
			rep.M.Samples[0].SegmentsOK, rep.M.Samples[2].SegmentsOK)
	}
}
