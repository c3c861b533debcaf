package core_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// fullRun executes tc to its horizon with no verdict machines attached, so
// the trace is complete, and returns the live system.
func fullRun(t *testing.T, r *core.Runner, level platform.Instrument, tc core.TestCase) *platform.System {
	t.Helper()
	sys, err := r.Setup(level, tc)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(tc.Horizon(r.Req))
	return sys
}

// requireSame3 asserts the live run's verdicts, the replay of a
// full-horizon run and the oracle over that same trace agree bit for bit.
func requireSame3[T any](t *testing.T, label string, live, replay, oracle T) {
	t.Helper()
	if !reflect.DeepEqual(replay, oracle) {
		t.Fatalf("%s: replay diverges from the oracle\nreplay: %+v\noracle: %+v", label, replay, oracle)
	}
	if !reflect.DeepEqual(live, oracle) {
		t.Fatalf("%s: live run diverges from the oracle\nlive:   %+v\noracle: %+v", label, live, oracle)
	}
}

// checkEquivalence runs tc once through RunRM with M-testing forced and
// requires its R verdicts to equal the replay and the oracle over an
// R-level full-horizon run, and its M samples to equal the annotation of
// both over an M-level full-horizon run. The R comparison is the premise
// of judging R-testing from the M-level run: M-level probes do not move
// virtual time, so they cannot change a verdict.
func checkEquivalence(t *testing.T, r *core.Runner, tc core.TestCase) {
	t.Helper()
	rep, err := r.RunRM(tc, true)
	if err != nil {
		t.Fatal(err)
	}
	sys := fullRun(t, r, platform.RLevel, tc)
	requireSame3(t, "R", rep.R.Samples, r.Evaluate(sys, tc), r.Oracle(sys, tc))

	sys = fullRun(t, r, platform.MLevel, tc)
	// Only the samples compare: Program and TransTrace are per-run pointers.
	requireSame3(t, "M", rep.M.Samples,
		r.AnnotateM(sys, tc, r.Evaluate(sys, tc)).Samples,
		r.AnnotateM(sys, tc, r.Oracle(sys, tc)).Samples)
}

func schemeFactories() map[string]core.SystemFactory {
	return map[string]core.SystemFactory{
		"scheme1": scheme1Factory(), "scheme2": scheme2Factory(), "scheme3": scheme3Factory(),
	}
}

// TestVerdictEquivalenceAcrossSchemes: on every unfaulted scheme, the
// live machines of one M-level run, their replay over full-horizon runs
// at R and M level and the oracle agree.
func TestVerdictEquivalenceAcrossSchemes(t *testing.T) {
	tc := genCase(t, 4, 42)
	for name, factory := range schemeFactories() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := core.NewRunner(factory, gpca.REQ1())
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, r, tc)
		})
	}
}

// TestVerdictEquivalenceUnderFaults: on every scheme, under each faulted
// fault catalogue plan, the live machines of one M-level run, their
// replay over full-horizon runs at R and M level and the oracle agree.
func TestVerdictEquivalenceUnderFaults(t *testing.T) {
	tc := genCase(t, 3, 42)
	plans := rmtest.FaultCatalog(tc.Horizon(gpca.REQ1()))
	seeds := campaign.Seeds(42, len(plans))
	for name, factory := range schemeFactories() {
		for i, plan := range plans {
			if len(plan.Faults) == 0 {
				continue
			}
			t.Run(name+"/"+plan.Name, func(t *testing.T) {
				t.Parallel()
				probe, err := factory(platform.RLevel)
				if err != nil {
					t.Fatal(err)
				}
				applies := plan.Apply(probe, seeds[i])
				if applies != nil {
					t.Skipf("plan does not apply: %v", applies)
				}
				r, err := core.NewRunner(factory, gpca.REQ1())
				if err != nil {
					t.Fatal(err)
				}
				r.Prepare = faults.Prepare(plan, seeds[i])
				checkEquivalence(t, r, tc)
			})
		}
	}
}

// TestReplayAndOracleOnOneRun judges one M-instrumented full-horizon run
// both ways: replaying the verdict machines and scanning with the oracle
// observe the very same execution, so every sample must agree.
func TestReplayAndOracleOnOneRun(t *testing.T) {
	r, err := core.NewRunner(scheme2Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	tc := genCase(t, 4, 7)
	sys := fullRun(t, r, platform.MLevel, tc)
	replay, oracle := r.Evaluate(sys, tc), r.Oracle(sys, tc)
	if len(replay) != len(tc.Stimuli) {
		t.Fatalf("replay judged %d samples, want %d", len(replay), len(tc.Stimuli))
	}
	if !reflect.DeepEqual(replay, oracle) {
		t.Fatalf("same-run divergence\nreplay: %v\noracle: %v", replay, oracle)
	}
	if m, o := r.AnnotateM(sys, tc, replay).Samples, r.AnnotateM(sys, tc, oracle).Samples; !reflect.DeepEqual(m, o) {
		t.Fatalf("same-run M divergence\nreplay: %+v\noracle: %+v", m, o)
	}
}

// TestVerdictEquivalenceAtDeadline pins the watchdog epsilon: an injected
// actuator latency that lands the response exactly at m + timeout must be
// a Fail on every path, and one nanosecond later a MAX on every path.
func TestVerdictEquivalenceAtDeadline(t *testing.T) {
	req := gpca.REQ1()
	tc, err := core.Generator{N: 1, Start: 50 * ms, Spacing: time.Second, Seed: 1}.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	runner := func(extra sim.Time) *core.Runner {
		r, err := core.NewRunner(scheme2Factory(), req)
		if err != nil {
			t.Fatal(err)
		}
		if extra > 0 {
			r.Prepare = faults.Prepare(faults.Plan{Name: "boundary", Faults: []faults.Fault{
				{Class: faults.ActuatorLatency, Target: "pump_motor", Duration: time.Hour, Max: extra},
			}}, 1)
		}
		return r
	}

	// Measure the unfaulted response delay, then craft the latency that
	// lands the c-event exactly at m + timeout.
	base, err := runner(0).RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if base.R.Samples[0].Verdict != core.Pass {
		t.Fatalf("baseline verdict %v, want Pass", base.R.Samples[0].Verdict)
	}
	exact := req.EffectiveTimeout() - base.R.Samples[0].Delay
	if exact <= 0 {
		t.Fatalf("baseline delay %v already beyond the timeout", base.R.Samples[0].Delay)
	}
	for _, c := range []struct {
		name  string
		extra sim.Time
		want  core.Verdict
	}{
		{"exactly at timeout", exact, core.Fail},
		{"one ns past timeout", exact + 1, core.Max},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := runner(c.extra)
			checkEquivalence(t, r, tc)
			rep, err := r.RunRM(tc, false)
			if err != nil {
				t.Fatal(err)
			}
			s := rep.R.Samples[0]
			if s.Verdict != c.want {
				t.Fatalf("verdict %v, want %v (delay %v)", s.Verdict, c.want, s.Delay)
			}
			if c.want == core.Fail && s.Delay != req.EffectiveTimeout() {
				t.Fatalf("delay %v, want exactly %v", s.Delay, req.EffectiveTimeout())
			}
		})
	}
}

// TestLiveRunStopsAtLastVerdict checks the point of judging live: the run
// halts before the horizon, fires fewer kernel events than a full-horizon
// run, and still produces the same verdicts.
func TestLiveRunStopsAtLastVerdict(t *testing.T) {
	tc := genCase(t, 3, 42)
	r, err := core.NewRunner(scheme1Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	var live *platform.System
	r.Prepare = func(sys *platform.System, _ core.TestCase) { live = sys }
	rep, err := r.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	r.Prepare = nil
	full := fullRun(t, r, platform.MLevel, tc)
	samples := rep.R.Samples
	if !reflect.DeepEqual(samples, r.Evaluate(full, tc)) {
		t.Fatal("live verdicts diverge from the full-horizon replay")
	}
	// The last sample is decided by its deadline watchdog at the latest.
	lastDeadline := samples[len(samples)-1].MEvent.At + r.Req.EffectiveTimeout() + 1
	if live.Kernel.Now() > lastDeadline {
		t.Fatalf("live run stopped at %v, after the last deadline %v", live.Kernel.Now(), lastDeadline)
	}
	if live.Kernel.Now() >= tc.Horizon(r.Req) {
		t.Fatalf("live run reached the horizon %v", tc.Horizon(r.Req))
	}
	if live.Kernel.EventsFired() >= full.Kernel.EventsFired() {
		t.Fatalf("live run fired %d kernel events, full run %d", live.Kernel.EventsFired(), full.Kernel.EventsFired())
	}
}

// TestLiveRunWithoutStimuliRunsToHorizon pins the one case where the
// live run does not stop early: with no stimulus there is no verdict to
// decide, so nothing stops the run before its 10ms horizon, and the
// verdicts are the empty list. No shipped path builds such a case:
// Generator rejects N below 1, and the shrinker skips candidates with no
// primary stimulus.
func TestLiveRunWithoutStimuliRunsToHorizon(t *testing.T) {
	r, err := core.NewRunner(scheme1Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	var live *platform.System
	r.Prepare = func(sys *platform.System, _ core.TestCase) { live = sys }
	tc := core.TestCase{Name: "empty"}
	rep, err := r.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.R.Samples) != 0 || !rep.R.Passed() {
		t.Fatalf("verdicts %v, want none", rep.R.Samples)
	}
	if h := tc.Horizon(r.Req); h != 10*ms || live.Kernel.Now() != h {
		t.Fatalf("live run ended at %v, want its horizon %v (10ms)", live.Kernel.Now(), h)
	}
}

// TestSetupRejectsDecreasingStimuli: responses are credited to samples in
// FIFO order, so a test case whose stimuli decrease must be refused with
// an error on every entry point rather than judged wrongly.
func TestSetupRejectsDecreasingStimuli(t *testing.T) {
	r, err := core.NewRunner(scheme1Factory(), gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	tc := core.TestCase{Name: "backwards", Stimuli: []sim.Time{4600 * ms, 50 * ms}}
	if _, err := r.Setup(platform.RLevel, tc); err == nil || !strings.Contains(err.Error(), "non-decreasing") {
		t.Fatalf("Setup: err = %v, want an ordering error", err)
	}
	for _, force := range []bool{false, true} {
		if _, err := r.RunRM(tc, force); err == nil {
			t.Fatalf("RunRM(force=%v) accepted decreasing stimuli", force)
		}
	}
	// Ties are ordered: equal instants are two samples of one press.
	if _, err := r.RunRM(core.TestCase{Stimuli: []sim.Time{50 * ms, 50 * ms}}, false); err != nil {
		t.Fatalf("equal stimuli rejected: %v", err)
	}
}

// TestGeneratorRejectsJitterAboveSpacing: with more jitter than spacing a
// later jittered stimulus can land before an earlier one.
func TestGeneratorRejectsJitterAboveSpacing(t *testing.T) {
	g := core.Generator{N: 4, Start: 50 * ms, Spacing: 2 * time.Second, Strategy: core.JitteredSpacing, Jitter: 3 * time.Second}
	if _, err := g.Generate(gpca.REQ1()); err == nil {
		t.Fatal("jitter above spacing accepted")
	}
	g.Jitter = g.Spacing
	tc, err := g.Generate(gpca.REQ1())
	if err != nil {
		t.Fatalf("jitter equal to spacing rejected: %v", err)
	}
	for i := 1; i < len(tc.Stimuli); i++ {
		if tc.Stimuli[i] < tc.Stimuli[i-1] {
			t.Fatalf("stimuli decrease: %v", tc.Stimuli)
		}
	}
}
