package baseline

import (
	"strings"
	"testing"
	"time"

	"rmtest/internal/core"
	"rmtest/internal/env"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

const ms = time.Millisecond

func req1Rule() Rule {
	return Rule{
		Name:     "REQ1",
		Stimulus: gpca.SigBolusButton,
		StimOK:   func(v int64) bool { return v == 1 },
		Response: gpca.SigPumpMotor,
		RespOK:   func(v int64) bool { return v >= 1 },
		Bound:    100 * ms,
		Timeout:  time.Second,
	}
}

func runPump(t *testing.T, scheme platform.Scheme, presses []sim.Time) *Monitor {
	t.Helper()
	sys, err := platform.NewSystem(gpca.PlatformConfig(), scheme, platform.RLevel)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := NewMonitor([]Rule{req1Rule()})
	if err != nil {
		t.Fatal(err)
	}
	mo.Attach(sys.Env)
	var horizon sim.Time
	for _, p := range presses {
		sys.Env.PulseAt(p, gpca.SigBolusButton, 1, 0, gpca.ButtonPress)
		if p > horizon {
			horizon = p
		}
	}
	sys.Run(horizon + 2*time.Second)
	mo.Flush(sys.Kernel.Now())
	return mo
}

func TestMonitorConformingRun(t *testing.T) {
	mo := runPump(t, platform.DefaultScheme1(), []sim.Time{50 * ms, 5 * time.Second})
	vs := mo.Verdicts()
	if len(vs) != 2 {
		t.Fatalf("verdicts=%v", vs)
	}
	if !mo.Conforms() {
		t.Fatalf("scheme1 should conform: %v", vs)
	}
	for _, v := range vs {
		if v.Delay <= 0 || v.Delay > 100*ms {
			t.Fatalf("verdict %v", v)
		}
	}
}

func TestMonitorDetectsViolation(t *testing.T) {
	mo := runPump(t, platform.DefaultScheme3(), []sim.Time{5 * ms, 5 * time.Second})
	if mo.Conforms() {
		t.Fatalf("scheme3 should violate: %v", mo.Verdicts())
	}
	if len(mo.Violations()) == 0 {
		t.Fatal("no violations reported")
	}
}

func TestMonitorTimeoutVerdict(t *testing.T) {
	// A short press swallowed by interference yields a no-response
	// verdict after Flush.
	mo := runPump(t, platform.DefaultScheme3(), []sim.Time{2 * ms})
	found := false
	for _, v := range mo.Verdicts() {
		if !v.Responded {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a timeout verdict: %v", mo.Verdicts())
	}
}

// TestBaselineBlindToSegments documents the framework's advantage: the
// baseline sees the same violation R-testing sees, but carries zero
// information about which platform path caused it, while M-testing
// decomposes it into segments.
func TestBaselineBlindToSegments(t *testing.T) {
	factory := gpca.Factory(func() platform.Scheme { return platform.DefaultScheme3() })
	runner, err := core.NewRunner(factory, gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	g := core.Generator{N: 6, Start: 50 * ms, Spacing: 4500 * ms, Strategy: core.JitteredSpacing, Seed: 11}
	tc, err := g.Generate(gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.R.Passed() {
		t.Skip("no violation this seed")
	}
	// Baseline run over the same stimuli.
	mo := runPump(t, platform.DefaultScheme3(), tc.Stimuli)
	if mo.Conforms() {
		t.Fatalf("baseline missed the violation R-testing found")
	}
	// The baseline's verdicts carry only delay+conformance...
	for _, v := range mo.Violations() {
		if v.Responded && v.Delay <= 100*ms {
			t.Fatalf("inconsistent verdict %v", v)
		}
	}
	// ...while M-testing yields per-segment measurements for diagnosis.
	if rep.M == nil || len(rep.Diagnosis) == 0 {
		t.Fatal("R-M flow should provide diagnosis")
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(nil); err == nil {
		t.Fatal("empty rules should fail")
	}
	if _, err := NewMonitor([]Rule{{}}); err == nil {
		t.Fatal("malformed rule should fail")
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{Rule: "R", StimulusAt: ms, ResponseAt: 3 * ms, Responded: true, Delay: 2 * ms, Conforms: true}
	if !strings.Contains(v.String(), "conforms") {
		t.Fatalf("string: %s", v)
	}
	v.Conforms = false
	if !strings.Contains(v.String(), "VIOLATION") {
		t.Fatalf("string: %s", v)
	}
	v.Responded = false
	if !strings.Contains(v.String(), "timeout") {
		t.Fatalf("string: %s", v)
	}
}

func TestOfflineExpiry(t *testing.T) {
	k := sim.New()
	e := env.New(k)
	e.Define("stim", 0)
	e.Define("resp", 0)
	mo, err := NewMonitor([]Rule{{
		Name: "r", Stimulus: "stim", StimOK: func(v int64) bool { return v == 1 },
		Response: "resp", RespOK: func(v int64) bool { return v == 1 },
		Bound: 10 * ms, Timeout: 50 * ms,
	}})
	if err != nil {
		t.Fatal(err)
	}
	mo.Attach(e)
	e.SetAt(0, "stim", 1)
	// A second stimulus long after the first's timeout: the first must
	// expire rather than match the late response.
	e.SetAt(200*ms, "stim", 0)
	e.SetAt(201*ms, "stim", 1)
	e.SetAt(205*ms, "resp", 1)
	k.Run(time.Second)
	mo.Flush(k.Now())
	vs := mo.Verdicts()
	if len(vs) != 2 {
		t.Fatalf("verdicts=%v", vs)
	}
	if vs[0].Responded {
		t.Fatalf("first stimulus should time out: %v", vs[0])
	}
	if !vs[1].Responded || vs[1].Delay != 4*ms || !vs[1].Conforms {
		t.Fatalf("second verdict wrong: %v", vs[1])
	}
}
