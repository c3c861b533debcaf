package rmtest_test

// End-to-end checks of the fault-injection subsystem: the
// fault-attribution sweep against its golden CSV at several worker
// counts, the five-class attribution acceptance, panic containment and
// accounting in faulted campaigns, and scratch hygiene after an aborted
// faulted run.

import (
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

// TestFaultSweepMatchesGolden pins the fault-attribution sweep byte for
// byte: the rendered CSV must equal testdata/faults_seed42.csv at every
// worker count.
func TestFaultSweepMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/faults_seed42.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		res, err := rmtest.FaultSweep(rmtest.FaultSweepOptions{
			Samples: 10, Seed: 42, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rmtest.RenderFaultCSV(res.Attributions); got != string(golden) {
			t.Errorf("workers=%d: fault CSV deviates from golden:\n%s", workers, got)
		}
	}
}

// TestFaultAttributionAcceptance is the subsystem's acceptance check:
// for each of the five headline fault classes, M-testing must blame the
// delay segment the class is designed to damage.
func TestFaultAttributionAcceptance(t *testing.T) {
	res, err := rmtest.FaultSweep(rmtest.FaultSweepOptions{Samples: 10, Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	byPlan := map[string]rmtest.FaultAttribution{}
	for _, a := range res.Attributions {
		byPlan[a.Plan] = a
	}
	for _, plan := range []string{
		"sensor-latency", "actuator-latency", "task-overrun", "queue-drop", "clock-drift",
	} {
		a, ok := byPlan[plan]
		if !ok {
			t.Errorf("catalogue has no plan %q", plan)
			continue
		}
		if !a.Match {
			t.Errorf("%s: attributed %v, expected %v", plan, a.Attributed, a.Expected)
		}
		if a.Fail+a.Max == 0 {
			t.Errorf("%s: fault produced no violation to attribute", plan)
		}
	}
	// The baseline plan must be clean and the storm is the negative
	// control: diffuse damage, no single-segment attribution.
	if a := byPlan["baseline"]; a.Fail+a.Max != 0 || a.Attributed != rmtest.SegNone {
		t.Errorf("baseline not clean: %+v", a)
	}
	if a := byPlan["isr-storm"]; a.Attributed != rmtest.SegNone {
		t.Errorf("isr-storm attributed %v, want none (negative control)", a.Attributed)
	}
}

// TestFaultedCampaignPanicAccounting pins the containment contract for
// mis-targeted plans (satellite S4): a fault plan that panics in the
// Prepare hook fails exactly its own run, the campaign completes, the
// worker's scratch is discarded, and no worker goroutine leaks.
func TestFaultedCampaignPanicAccounting(t *testing.T) {
	before := runtime.NumGoroutine()
	req := gpca.REQ1()
	gen := core.Generator{
		N: 2, Start: 50 * time.Millisecond,
		Spacing: 4500 * time.Millisecond, Strategy: core.JitteredSpacing,
		Jitter: 200 * time.Millisecond, Seed: 42,
	}
	tc, err := gen.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := gpca.Precompile()
	if err != nil {
		t.Fatal(err)
	}
	good := faults.Plan{Name: "ok", Faults: []faults.Fault{
		{Class: faults.ActuatorLatency, Target: "pump_motor", Duration: sim.Time(time.Hour), Max: 10 * time.Millisecond},
	}}
	bad := faults.Plan{Name: "bad", Faults: []faults.Fault{
		{Class: faults.SensorStuck, Target: "no-such-sensor", Duration: sim.Time(time.Hour)},
	}}
	plans := []faults.Plan{good, good, bad, good, good}

	var mu sync.Mutex
	var lastDone, scratches int
	maxDone := -1
	outs := campaign.MapScratch(
		campaign.Config{Workers: 2, Seed: 42, OnProgress: func(p campaign.Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Done < maxDone {
				t.Errorf("progress went backwards: %d after %d", p.Done, maxDone)
			}
			maxDone = p.Done
			lastDone = p.Done
		}},
		len(plans),
		func() *platform.Scratch { mu.Lock(); scratches++; mu.Unlock(); return &platform.Scratch{} },
		func(run campaign.Run, sc *platform.Scratch) (core.Report, error) {
			factory := gpca.FactoryPrebuilt(pb, func() platform.Scheme { return platform.DefaultScheme2() }, sc)
			runner, err := core.NewRunner(factory, req)
			if err != nil {
				return core.Report{}, err
			}
			runner.Prepare = faults.Prepare(plans[run.Index], run.Seed)
			return runner.RunRM(tc, true)
		})

	failed := 0
	for i, o := range outs {
		if o.Failed() {
			failed++
			if i != 2 {
				t.Errorf("run %d failed, only the bad plan (index 2) should: %v", i, o.Err)
			}
			if !strings.Contains(o.Err.Error(), `unknown sensor "no-such-sensor"`) {
				t.Errorf("failure does not carry the Apply error: %v", o.Err)
			}
		} else if len(o.Value.M.Samples) != 2 {
			t.Errorf("run %d: %d samples, want 2", i, len(o.Value.M.Samples))
		}
	}
	if failed != 1 {
		t.Fatalf("failed runs = %d, want exactly 1", failed)
	}
	if lastDone != len(plans) {
		t.Fatalf("final progress Done = %d, want %d (a panicking run still counts as done)", lastDone, len(plans))
	}
	// The panicking run's scratch is discarded, so the pool must have
	// built at least one scratch beyond the two workers'.
	if scratches < 3 {
		t.Errorf("scratch factory ran %d times, want >= 3 (discard on panic)", scratches)
	}
	// Every campaign worker must wind down, including the one the panic
	// unwound through.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

// faultyScheme is scheme 2 plus, when armed, an extra periodic task
// whose body panics at its second release.
type faultyScheme struct {
	*platform.Scheme2
	armed bool
}

func (s faultyScheme) Start(sys *platform.System) error {
	if err := s.Scheme2.Start(sys); err != nil || !s.armed {
		return err
	}
	sys.Sched.SpawnPeriodic("faulty", 1, 0, 50*time.Millisecond, func(tk *rtos.Task) {
		if tk.Releases() == 2 {
			panic("faulty task: second release")
		}
		tk.Compute(time.Millisecond)
	})
	return nil
}

// TestCampaignTaskPanicFailsOnlyItsRun extends the containment contract
// from Prepare hooks to task bodies: a task that panics mid-simulation
// fails exactly its own run with the panic value in the error, the other
// runs complete, and no worker goroutine leaks.
func TestCampaignTaskPanicFailsOnlyItsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	req := gpca.REQ1()
	tc, err := core.Generator{
		N: 2, Start: 50 * time.Millisecond,
		Spacing: 4500 * time.Millisecond, Strategy: core.JitteredSpacing,
		Jitter: 200 * time.Millisecond, Seed: 42,
	}.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := gpca.Precompile()
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	outs := campaign.MapScratch(
		campaign.Config{Workers: 2, Seed: 42}, 5,
		func() *platform.Scratch { return &platform.Scratch{} },
		func(run campaign.Run, sc *platform.Scratch) (core.Report, error) {
			scheme := func() platform.Scheme {
				return faultyScheme{Scheme2: platform.DefaultScheme2(), armed: run.Index == bad}
			}
			runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, scheme, sc), req)
			if err != nil {
				return core.Report{}, err
			}
			return runner.RunRM(tc, true)
		})
	for i, o := range outs {
		switch {
		case i == bad && !o.Failed():
			t.Errorf("run %d with the faulty task succeeded", i)
		case i == bad && !strings.Contains(o.Err.Error(), "faulty task: second release"):
			t.Errorf("failure does not carry the panic value: %v", o.Err)
		case i != bad && o.Failed():
			t.Errorf("run %d failed, only run %d should: %v", i, bad, o.Err)
		case i != bad && len(o.Value.M.Samples) != 2:
			t.Errorf("run %d: %d samples, want 2", i, len(o.Value.M.Samples))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestScratchCleanAfterAbortedFaultedRun pins kernel-reset hygiene at
// the platform layer (satellite S1): a faulted run abandoned in the
// middle of its fault windows must leave its worker scratch reusable —
// the next, unfaulted run on the same scratch measures exactly what a
// fresh system measures.
func TestScratchCleanAfterAbortedFaultedRun(t *testing.T) {
	req := gpca.REQ1()
	gen := core.Generator{
		N: 2, Start: 50 * time.Millisecond,
		Spacing: 4500 * time.Millisecond, Strategy: core.JitteredSpacing,
		Jitter: 200 * time.Millisecond, Seed: 42,
	}
	tc, err := gen.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := gpca.Precompile()
	if err != nil {
		t.Fatal(err)
	}
	scheme := func() platform.Scheme { return platform.DefaultScheme2() }

	// Faulted run with windows and timers far beyond the abort horizon:
	// a latch scheduled at 2s, a drifted sampling clock, a storm ticking
	// to the end of time.
	sc := &platform.Scratch{}
	runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, scheme, sc), req)
	if err != nil {
		t.Fatal(err)
	}
	runner.Prepare = faults.Prepare(faults.Plan{Name: "mid-window", Faults: []faults.Fault{
		{Class: faults.SensorStuck, Target: "bolus_button", Start: 2 * sim.Time(time.Second), Duration: sim.Time(time.Hour), Value: 1},
		{Class: faults.ClockDrift, Target: "bolus_button", Start: 0, Duration: sim.Time(time.Hour), PPM: 500_000},
		{Class: faults.ISRStorm, Duration: sim.Time(time.Hour), Period: 2 * time.Millisecond, Cost: 200 * time.Microsecond},
	}}, 7)
	sys, err := runner.Setup(platform.MLevel, tc)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(sim.Time(time.Second)) // abort mid-window: stuck latch still pending

	// Unfaulted run on the recycled scratch vs a freshly allocated system.
	recycled, err := core.NewRunner(gpca.FactoryPrebuilt(pb, scheme, sc), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recycled.RunRM(tc, true)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewRunner(gpca.FactoryPrebuilt(pb, scheme, nil), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunRM(tc, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.M.Samples, want.M.Samples) {
		t.Fatalf("recycled scratch measured differently after an aborted faulted run:\ngot  %+v\nwant %+v", got.M.Samples, want.M.Samples)
	}
}
