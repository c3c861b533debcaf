package main

import (
	"fmt"
	"strings"
	"time"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/fourvar"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/railcrossing"
	"rmtest/internal/verify"
)

// Span and count names of the in-process probe; they are per-layer
// metric names.
const (
	spanSetup    = "platform.setup_ms"
	spanRun      = "sim.run_ms"
	spanEval     = "core.evaluate_ms"
	spanTeardown = "platform.teardown_ms"
	spanVerify   = "verify.check_ms"

	cntEvents      = "sim.events"
	cntSwitches    = "rtos.switches"
	cntPreemptions = "rtos.preemptions"
	cntSteps       = "codegen.steps"
	cntTransitions = "codegen.transitions"
	cntRecords     = "fourvar.records"
	cntStates      = "verify.states"
)

// replay is one in-process replay of a workload op through the layers'
// public functions: host time per layer boundary and deterministic work
// counts, each summed over the op's simulation runs.
type replay struct {
	spans  map[string]float64 // ms
	counts map[string]uint64
	// valid reports that the replay reproduced the op's reference output.
	valid bool
}

func newReplay() *replay {
	return &replay{spans: map[string]float64{}, counts: map[string]uint64{}}
}

func (p *replay) timed(span string, f func()) {
	t := time.Now()
	f()
	p.spans[span] += msSince(t)
}

// run executes one simulation run the way core.Runner's RunR and RunM do,
// timing each layer boundary. eval extracts the run's result.
func (p *replay) run(r *core.Runner, level platform.Instrument, tc core.TestCase, eval func(*platform.System)) error {
	var sys *platform.System
	var err error
	p.timed(spanSetup, func() { sys, err = r.Setup(level, tc) })
	if err != nil {
		return err
	}
	p.timed(spanRun, func() { sys.Run(tc.Horizon(r.Req)) })
	p.timed(spanEval, func() { eval(sys) })
	p.count(sys)
	p.timed(spanTeardown, func() { teardown(sys) })
	return nil
}

// count adds the finished run's work counters. Each is reached through an
// interface, so a layer that drops an accessor leaves its count out
// instead of breaking the benchmark's build.
func (p *replay) count(sys *platform.System) {
	if k, ok := any(sys.Kernel).(interface{ EventsFired() uint64 }); ok {
		p.counts[cntEvents] += k.EventsFired()
	}
	if s, ok := any(sys.Sched).(interface{ ContextSwitches() uint64 }); ok {
		p.counts[cntSwitches] += s.ContextSwitches()
	}
	if s, ok := any(sys.Sched).(interface{ Preemptions() uint64 }); ok {
		p.counts[cntPreemptions] += s.Preemptions()
	}
	if x, ok := any(sys.Exec).(interface{ Steps() uint64 }); ok {
		p.counts[cntSteps] += x.Steps()
	}
	if x, ok := any(sys.Exec).(interface{ TransitionsTaken() uint64 }); ok {
		p.counts[cntTransitions] += x.TransitionsTaken()
	}
	if t, ok := any(sys.Trace).(interface{ Len() int }); ok {
		p.counts[cntRecords] += uint64(t.Len())
	}
	if t, ok := any(sys.TransTrace).(interface {
		Records() []fourvar.TransitionDelay
	}); ok {
		p.counts[cntRecords] += uint64(len(t.Records()))
	}
}

// teardown releases a finished system. Shutdown is reached through an
// interface because it exists only while RTOS tasks are goroutines.
func teardown(sys any) {
	if s, ok := sys.(interface{ Shutdown() }); ok {
		s.Shutdown()
	}
}

// bolusCase is the REQ1 test case both CLIs build: ten jittered bolus
// requests 4.5 s apart.
func bolusCase(seed uint64) (core.TestCase, error) {
	return core.Generator{
		N: 10, Start: 50 * time.Millisecond,
		Spacing: 4500 * time.Millisecond, Strategy: core.JitteredSpacing,
		Jitter: 200 * time.Millisecond, Seed: seed,
	}.Generate(gpca.REQ1())
}

var schemes = []func() platform.Scheme{
	func() platform.Scheme { return platform.DefaultScheme1() },
	func() platform.Scheme { return platform.DefaultScheme2() },
	func() platform.Scheme { return platform.DefaultScheme3() },
}

// probeTableI replays `tablei -csv`: R-testing on the three schemes, then
// forced M-testing on each, rendered with RenderCSV.
func probeTableI(seed uint64, ref []byte) (*replay, error) {
	req := gpca.REQ1()
	tc, err := bolusCase(seed)
	if err != nil {
		return nil, err
	}
	pb, err := gpca.Precompile()
	if err != nil {
		return nil, err
	}
	p := newReplay()
	sc := &platform.Scratch{}
	reports := make([]rmtest.Report, len(schemes))
	runners := make([]*core.Runner, len(schemes))
	for i, mk := range schemes {
		if runners[i], err = core.NewRunner(gpca.FactoryPrebuilt(pb, mk, sc), req); err != nil {
			return nil, err
		}
		r := runners[i]
		err = p.run(r, platform.RLevel, tc, func(sys *platform.System) {
			reports[i].R = core.RResult{Requirement: req, Scheme: sys.SchemeName(), Case: tc, Samples: r.Evaluate(sys, tc)}
		})
		if err != nil {
			return nil, err
		}
	}
	for i, r := range runners {
		err = p.run(r, platform.MLevel, tc, func(sys *platform.System) {
			m := r.AnnotateM(sys, tc, r.Evaluate(sys, tc))
			reports[i].M = &m
			reports[i].Diagnosis = core.Diagnose(m)
		})
		if err != nil {
			return nil, err
		}
	}
	p.valid = rmtest.RenderCSV(reports) == string(ref)
	return p, nil
}

// probeFaults replays `tablei -faults -csv`: one M-level scheme-2 run per
// catalogue plan, each armed with its plan under the campaign's per-run
// seed, then attribution against the baseline, rendered with
// RenderFaultCSV.
func probeFaults(seed uint64, ref []byte) (*replay, error) {
	req := gpca.REQ1()
	tc, err := bolusCase(seed)
	if err != nil {
		return nil, err
	}
	pb, err := gpca.Precompile()
	if err != nil {
		return nil, err
	}
	plans := rmtest.FaultCatalog(tc.Horizon(req))
	seeds := campaign.Seeds(seed, len(plans))
	p := newReplay()
	sc := &platform.Scratch{}
	results := make([]core.MResult, len(plans))
	for i, plan := range plans {
		r, err := core.NewRunner(gpca.FactoryPrebuilt(pb, schemes[1], sc), req)
		if err != nil {
			return nil, err
		}
		r.Prepare = faults.Prepare(plan, seeds[i])
		err = p.run(r, platform.MLevel, tc, func(sys *platform.System) {
			results[i] = r.AnnotateM(sys, tc, r.Evaluate(sys, tc))
		})
		if err != nil {
			return nil, err
		}
	}
	attrs := make([]faults.Attribution, len(plans))
	p.timed(spanEval, func() {
		for i, plan := range plans {
			attrs[i] = faults.Attribute(plan, results[0], results[i])
		}
	})
	p.valid = rmtest.RenderFaultCSV(attrs) == string(ref)
	return p, nil
}

// flowProperty is the model-level form of REQ1 the rmtest command
// verifies before testing.
func flowProperty() verify.ResponseProperty {
	return verify.ResponseProperty{
		Name: "REQ1-model", Event: "i_BolusReq", InState: "Idle",
		Output: "o_MotorState", Target: func(v int64) bool { return v >= 1 },
		TargetDesc: ">= 1", WithinTicks: 100,
	}
}

// probeFlow replays `rmtest -req REQ1 -scheme 3`: model-level
// verification, R-testing, and M-testing with diagnosis on violation. The
// command prints text, so the replay is valid when its verification
// result and every R-testing sample line appear in the reference.
func probeFlow(seed uint64, ref []byte) (*replay, error) {
	req := gpca.REQ1()
	cc, err := gpca.Chart().Compile()
	if err != nil {
		return nil, err
	}
	p := newReplay()
	var res verify.Result
	p.timed(spanVerify, func() { res, err = verify.CheckResponse(cc, flowProperty(), verify.Options{}) })
	if err != nil {
		return nil, err
	}
	p.counts[cntStates] = uint64(res.Visited)
	tc, err := bolusCase(seed)
	if err != nil {
		return nil, err
	}
	r, err := core.NewRunner(gpca.Factory(schemes[2]), req)
	if err != nil {
		return nil, err
	}
	var samples []core.SampleResult
	if err := p.run(r, platform.RLevel, tc, func(sys *platform.System) { samples = r.Evaluate(sys, tc) }); err != nil {
		return nil, err
	}
	if (core.RResult{Samples: samples}).Passed() {
		return nil, fmt.Errorf("flow: REQ1 passed on scheme 3; the workload expects M-testing")
	}
	err = p.run(r, platform.MLevel, tc, func(sys *platform.System) {
		core.Diagnose(r.AnnotateM(sys, tc, r.Evaluate(sys, tc)))
	})
	if err != nil {
		return nil, err
	}
	out := string(ref)
	p.valid = strings.Contains(out, res.String()+"\n")
	for _, s := range samples {
		p.valid = p.valid && strings.Contains(out, "  "+s.String()+"\n")
	}
	return p, nil
}

// Set-up reps: the calls each workload makes before its first simulated
// event, repeated for the setup_s metric.

func setupTableI() error {
	tc, err := bolusCase(42)
	if err != nil {
		return err
	}
	pb, err := gpca.Precompile()
	if err != nil {
		return err
	}
	sc := &platform.Scratch{}
	for _, level := range []platform.Instrument{platform.RLevel, platform.MLevel} {
		for _, mk := range schemes {
			if err := setupOne(gpca.FactoryPrebuilt(pb, mk, sc), level, tc, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func setupFaults() error {
	tc, err := bolusCase(42)
	if err != nil {
		return err
	}
	pb, err := gpca.Precompile()
	if err != nil {
		return err
	}
	plans := rmtest.FaultCatalog(tc.Horizon(gpca.REQ1()))
	seeds := campaign.Seeds(42, len(plans))
	sc := &platform.Scratch{}
	for i, plan := range plans {
		if err := setupOne(gpca.FactoryPrebuilt(pb, schemes[1], sc), platform.MLevel, tc, faults.Prepare(plan, seeds[i])); err != nil {
			return err
		}
	}
	return nil
}

func setupGen() error {
	for _, cfg := range []platform.Config{gpca.PlatformConfig(), railcrossing.PlatformConfig()} {
		pb, err := platform.Precompile(cfg)
		if err != nil {
			return err
		}
		sc := &platform.Scratch{}
		for _, s := range []struct {
			mk    func() platform.Scheme
			level platform.Instrument
		}{{schemes[1], platform.MLevel}, {schemes[2], platform.RLevel}} {
			sys, err := pb.NewSystem(s.mk(), s.level, sc)
			if err != nil {
				return err
			}
			teardown(sys)
		}
	}
	return nil
}

func setupFlow() error {
	if _, err := gpca.Chart().Compile(); err != nil {
		return err
	}
	tc, err := bolusCase(42)
	if err != nil {
		return err
	}
	for _, level := range []platform.Instrument{platform.RLevel, platform.MLevel} {
		if err := setupOne(gpca.Factory(schemes[2]), level, tc, nil); err != nil {
			return err
		}
	}
	return nil
}

// setupOne builds one system with its stimuli (and fault plan) armed, and
// tears it down.
func setupOne(f core.SystemFactory, level platform.Instrument, tc core.TestCase, prepare func(*platform.System, core.TestCase)) error {
	r, err := core.NewRunner(f, gpca.REQ1())
	if err != nil {
		return err
	}
	r.Prepare = prepare
	sys, err := r.Setup(level, tc)
	if err != nil {
		return err
	}
	teardown(sys)
	return nil
}
