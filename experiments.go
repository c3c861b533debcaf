package rmtest

import (
	"fmt"
	"time"

	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/gpca"
	"rmtest/internal/lint"
	"rmtest/internal/platform"
	"rmtest/internal/rta"
	"rmtest/internal/schedlint"
	"rmtest/internal/sim"
)

// TableIOptions parameterises the Table I experiment.
type TableIOptions struct {
	// Samples is the number of test samples per scheme (the paper shows
	// ten).
	Samples int
	// Seed drives the deterministic stimulus-phase jitter.
	Seed uint64
	// ForceM runs M-testing even for schemes whose R-testing passes, so
	// the table can show segments for every scheme.
	ForceM bool
	// Workers bounds the campaign worker pool; 0 means GOMAXPROCS. Any
	// value produces byte-identical reports (the campaign engine's
	// determinism contract).
	Workers int
	// Progress, when set, receives a snapshot after every completed run.
	Progress func(campaign.Progress)
}

// TableIExperiment reproduces the paper's Table I: the bolus-request
// scenario of REQ1 executed on the three implementation schemes, with
// R-testing delays for every sample and M-testing delay segments for the
// violating ones (or for every scheme under ForceM). Each scheme is one
// Runner.RunRM simulation, and the three are independent deterministic
// runs, so they execute in parallel on the campaign engine.
func TableIExperiment(opt TableIOptions) ([]Report, error) {
	if opt.Samples <= 0 {
		opt.Samples = 10
	}
	req := gpca.REQ1()
	tc, err := gpca.TableIGenerator(opt.Samples, opt.Seed).Generate(req)
	if err != nil {
		return nil, err
	}
	// Compile the chart once; workers share the immutable program and
	// recycle their own kernel/trace scratch between runs.
	pb, err := gpca.Precompile()
	if err != nil {
		return nil, err
	}
	cfg := campaign.Config{Workers: opt.Workers, Seed: opt.Seed, OnProgress: opt.Progress}
	return campaign.Values(campaign.MapScratch(cfg, len(tableISchemes),
		func() *platform.Scratch { return &platform.Scratch{} },
		func(run campaign.Run, sc *platform.Scratch) (Report, error) {
			runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, tableISchemes[run.Index], sc), req)
			if err != nil {
				return Report{}, err
			}
			return runner.RunRM(tc, opt.ForceM)
		}))
}

// Fig3Experiment reproduces the layered view of Fig. 3 for one bolus
// request on the given scheme: the R-level (m, c) delay and the M-level
// segment decomposition including the two transition delays. It is one
// Runner.RunRM of a single REQ1 stimulus at 40 ms with M-testing forced,
// so Fig. 3 and Table I are measured by the same Runner.AnnotateM.
func Fig3Experiment(scheme Scheme) (Segments, error) {
	runner, err := core.NewRunner(gpca.Factory(func() platform.Scheme { return scheme }), gpca.REQ1())
	if err != nil {
		return Segments{}, err
	}
	rep, err := runner.RunRM(core.TestCase{Name: "fig3", Stimuli: []sim.Time{40 * time.Millisecond}}, true)
	if err != nil {
		return Segments{}, err
	}
	if s := rep.M.Samples[0]; s.SegmentsOK {
		return s.Segments, nil
	}
	return Segments{}, fmt.Errorf("rmtest: bolus chain not observed")
}

// AblationInfo compares the diagnostic information produced by the
// black-box baseline [2] and the layered R-M flow on the same violating
// execution (scheme 3). Both see the same violations. The baseline gives
// two facts per violation, its delay and verdict; R-M gives RMFacts.
type AblationInfo struct {
	Violations int
	RMFacts    int // facts per violation: 3 segments + transitions + dominant
	Findings   []Finding
}

// AblationBaselineVsRM runs the A1 ablation: the same stimuli are judged
// by the black-box baseline (pass/fail only) and by R-M testing (segments
// plus diagnosis), and the information yield is compared. Both judge one
// scheme-3 Runner.RunRM. The baseline is R-testing itself: its verdict
// machines read only the m- and c-events at the system boundary, which is
// all an online black-box tester such as [2] observes. R-M's facts come
// from the same run's M annotation.
func AblationBaselineVsRM(samples int, seed uint64) (AblationInfo, error) {
	req := gpca.REQ1()
	tc, err := gpca.TableIGenerator(samples, seed).Generate(req)
	if err != nil {
		return AblationInfo{}, err
	}
	runner, err := core.NewRunner(gpca.Factory(func() platform.Scheme { return platform.DefaultScheme3() }), req)
	if err != nil {
		return AblationInfo{}, err
	}
	rep, err := runner.RunRM(tc, false)
	if err != nil {
		return AblationInfo{}, err
	}
	info := AblationInfo{Violations: len(rep.R.Violations()), Findings: rep.Diagnosis}
	if rep.M != nil {
		for _, s := range rep.M.Samples {
			if s.Verdict == core.Pass {
				continue
			}
			if s.SegmentsOK {
				info.RMFacts += 3 + len(s.Segments.Transitions) + 1
			} else {
				info.RMFacts += 1 // the MAX diagnosis itself
			}
		}
	}
	return info, nil
}

// SchemeAnalysis is the analytic counterpart of R-testing for one
// scheme configuration: the platform static analysis of the sensing ->
// CODE(M) -> actuation pipeline and the end-to-end REQ1 latency bound it
// implies.
type SchemeAnalysis struct {
	// Bound is the worst-case m -> c latency implied by the task set; a
	// negative value means some pipeline task is not schedulable at all
	// (unbounded latency).
	Bound sim.Time
	// PredictConforms reports Bound <= REQ1's 100 ms (and schedulability).
	PredictConforms bool
	// Platform is the platform static-analysis report: the response-time
	// bounds of the whole task set, in the static model's task order
	// (sense, codeM, actuate, then any interference), and the queue
	// backlog bounds.
	Platform *schedlint.Report
}

// AnalyzePipelineStatic runs the static analysis of the scheme-2/3 pump
// pipeline, from static inputs alone: the CODE(M) task's WCET comes from
// the lint layer's bytecode WCET bounds (lint.WCETReport.Invocation over
// the CODE(M) period) and every other input from the pump's platform
// configuration (Scheme2.StaticModel). The interference list is empty
// for scheme 2 and Scheme3.Interference for scheme 3.
//
// The platform static analyzer (internal/schedlint) runs response-time
// analysis over the declared task/queue configuration and bounds every
// queue's backlog. The pipeline's tasks exchange data only through
// Queue.TrySend and TryRecv, and no task in the simulated RTOS can wait,
// so every B_i term is zero. The end-to-end bound adds to the three
// pipeline stages' response times the latch latency of the sensor that
// observes REQ1's stimulus and the actuation latency of the actuator that
// drives its response (platform.Config.DeviceLatencies). No measurement
// or hand calibration feeds the analysis.
func AnalyzePipelineStatic(s *platform.Scheme2, interference []platform.InterferenceTask) (SchemeAnalysis, error) {
	cfg, req := gpca.PlatformConfig(), gpca.REQ1()
	rep, err := lint.Analyze(cfg.Chart, cfg.Cost)
	if err != nil {
		return SchemeAnalysis{}, err
	}
	model, err := (&platform.Scheme3{Scheme2: *s, Interference: interference}).StaticModel(cfg, rep.WCET)
	if err != nil {
		return SchemeAnalysis{}, err
	}
	latch, act, err := cfg.DeviceLatencies(req.Stimulus.Signal, req.Response.Signal)
	if err != nil {
		return SchemeAnalysis{}, err
	}
	plat, err := schedlint.Analyze(model)
	if err != nil {
		return SchemeAnalysis{}, err
	}
	an := SchemeAnalysis{Bound: -1, Platform: plat}
	stages := []rta.Stage{{Name: "latch", ExtraLatency: latch}}
	for _, r := range plat.Tasks[:3] { // sense, codeM, actuate
		if !r.Schedulable {
			return an, nil
		}
		stages = append(stages, rta.Stage{Name: r.Task.Name, Period: r.Task.Period, Response: r.Response})
	}
	an.Bound = rta.PipelineBound(append(stages, rta.Stage{Name: "actuation", ExtraLatency: act}))
	an.PredictConforms = an.Bound <= req.Bound
	return an, nil
}

// MatrixCell is one (requirement, scheme) conformance result.
type MatrixCell struct {
	Requirement string
	Scheme      string
	Pass        int
	Fail        int
	Max         int
}

// Conforms reports whether every sample passed.
func (c MatrixCell) Conforms() bool { return c.Fail == 0 && c.Max == 0 }

// RequirementsMatrix runs every GPCA requirement against every
// implementation scheme — the extended evaluation beyond the paper's
// single-requirement Table I. REQ3 needs an active alarm, so its runner
// scripts the empty-reservoir condition before each clear-button press.
// Every (requirement, scheme) cell is an independent deterministic
// simulation, so the cells execute in parallel on the campaign engine
// (workers 0 means GOMAXPROCS), in the same row-major order the
// sequential loops produced.
func RequirementsMatrix(samples int, seed uint64, workers int) ([]MatrixCell, error) {
	if samples <= 0 {
		samples = 5
	}
	units := matrixUnits()
	pb, err := gpca.Precompile()
	if err != nil {
		return nil, err
	}
	cfg := campaign.Config{Workers: workers, Seed: seed}
	return campaign.Values(campaign.MapScratch(cfg, len(units),
		func() *platform.Scratch { return &platform.Scratch{} },
		func(run campaign.Run, sc *platform.Scratch) (MatrixCell, error) {
			u := units[run.Index]
			runner, tc, err := matrixRunner(u, gpca.FactoryPrebuilt(pb, u.mk, sc), samples, seed)
			if err != nil {
				return MatrixCell{}, err
			}
			rep, err := runner.RunRM(tc, false)
			if err != nil {
				return MatrixCell{}, err
			}
			return tallyCell(u.req.ID, rep.R.Scheme, rep.R.Samples), nil
		}))
}

// matrixUnit is one (requirement, scheme) cell of the matrix.
type matrixUnit struct {
	req core.Requirement
	mk  func() platform.Scheme
}

// tableISchemes constructs the paper's three implementation schemes, in
// Table I order.
var tableISchemes = []func() platform.Scheme{
	func() platform.Scheme { return platform.DefaultScheme1() },
	func() platform.Scheme { return platform.DefaultScheme2() },
	func() platform.Scheme { return platform.DefaultScheme3() },
}

func matrixUnits() []matrixUnit {
	var units []matrixUnit
	for _, req := range []core.Requirement{gpca.REQ1(), gpca.REQ2(), gpca.REQ3()} {
		for _, mk := range tableISchemes {
			units = append(units, matrixUnit{req: req, mk: mk})
		}
	}
	return units
}

// matrixRunner builds the runner and test case for one matrix unit.
// factory decides how systems are built: the campaign passes a
// prebuilt-program factory with worker scratch, standalone callers pass
// gpca.Factory(u.mk).
func matrixRunner(u matrixUnit, factory core.SystemFactory, samples int, seed uint64) (*core.Runner, core.TestCase, error) {
	runner, err := core.NewRunner(factory, u.req)
	if err != nil {
		return nil, core.TestCase{}, err
	}
	tc := core.TestCase{Name: u.req.ID}
	switch u.req.ID {
	case "REQ2":
		// The empty condition is a persistent level; one sample.
		tc.Stimuli = []sim.Time{100 * time.Millisecond}
	case "REQ3":
		// Alarm, then clear; alternate so each clear sees a fresh
		// alarm. The stimulus signal is the clear button.
		gen := core.Generator{
			N: samples, Start: 500 * time.Millisecond,
			Spacing:  2 * time.Second,
			Strategy: core.JitteredSpacing, Jitter: 100 * time.Millisecond,
			Seed: seed,
		}
		tc, err = gen.Generate(u.req)
		if err != nil {
			return nil, core.TestCase{}, err
		}
		runner.Prepare = func(sys *platform.System, tcase core.TestCase) {
			for _, at := range tcase.Stimuli {
				// Raise the empty alarm 300 ms before each clear
				// and drop the condition after, so the next cycle
				// re-alarms.
				sys.Env.PulseAt(at-300*time.Millisecond, gpca.SigReservoirEmpty, 1, 0, 600*time.Millisecond)
			}
		}
	default:
		tc, err = gpca.TableIGenerator(samples, seed).Generate(u.req)
		if err != nil {
			return nil, core.TestCase{}, err
		}
	}
	return runner, tc, nil
}

// tallyCell folds per-sample verdicts into a matrix cell.
func tallyCell(reqID, scheme string, samples []core.SampleResult) MatrixCell {
	cell := MatrixCell{Requirement: reqID, Scheme: scheme}
	for _, s := range samples {
		switch s.Verdict {
		case core.Pass:
			cell.Pass++
		case core.Fail:
			cell.Fail++
		case core.Max:
			cell.Max++
		}
	}
	return cell
}

// FaultSweepOptions parameterises the fault-attribution sweep.
type FaultSweepOptions struct {
	// Samples is the number of test samples per fault plan.
	Samples int
	// Seed drives both the stimulus jitter and, through the campaign
	// engine's per-run seed chain, every seeded fault stream.
	Seed uint64
	// Workers bounds the campaign worker pool; 0 means GOMAXPROCS. Any
	// value produces byte-identical results.
	Workers int
	// Progress, when set, receives a snapshot after every completed run.
	Progress func(campaign.Progress)
}

// FaultSweepResult bundles the fault sweep's outputs: one attribution
// row and one full M-testing result per catalogue plan, in catalogue
// order (index 0 is the unfaulted baseline).
type FaultSweepResult struct {
	Attributions []faults.Attribution
	Results      []core.MResult
}

// FaultCatalog returns the sweep's fault plans for the scheme-2 pump
// pipeline: one plan per fault class, each aimed at the component on
// the REQ1 bolus path whose damage the class's expected segment should
// absorb, plus the empty baseline plan the attributions are judged
// against. Windows cover the whole horizon except the WCET overrun:
// CODE(M) writes its output variable early in the step (the o-event)
// but delivers it to the output queue only when the whole invocation —
// including elapsed-tick catch-up — finishes, so a sustained overrun
// damages measured *output* delay more than code delay. The overrun
// plan therefore brackets just the first stimulus's drain release
// ([70ms, 1.3s] around the 80ms release that consumes the ~64ms press)
// with a scale big enough that the stretched step cannot produce its
// o-event inside the requirement timeout: the MAX trisection (i seen,
// o missing) then localises the starvation to CODE(M).
func FaultCatalog(horizon sim.Time) []faults.Plan {
	ms := time.Millisecond
	return []faults.Plan{
		{Name: "baseline"},
		{Name: "sensor-latency", Faults: []faults.Fault{
			{Class: faults.SensorLatency, Target: "bolus_button", Duration: horizon, Max: 120 * ms}}},
		{Name: "actuator-latency", Faults: []faults.Fault{
			{Class: faults.ActuatorLatency, Target: "pump_motor", Duration: horizon, Max: 100 * ms}}},
		{Name: "task-overrun", Faults: []faults.Fault{
			{Class: faults.TaskOverrun, Target: "codeM", Start: 70 * ms, Duration: 1230 * ms, Num: 10000, Den: 1}}},
		{Name: "queue-drop", Faults: []faults.Fault{
			{Class: faults.QueueDrop, Target: "inQ", Duration: horizon, Every: 1}}},
		{Name: "clock-drift", Faults: []faults.Fault{
			{Class: faults.ClockDrift, Target: "bolus_button", Duration: horizon, PPM: 15_000_000}}},
		{Name: "sensor-stuck", Faults: []faults.Fault{
			{Class: faults.SensorStuck, Target: "bolus_button", Duration: horizon, Value: 0}}},
		{Name: "sensor-dropout", Faults: []faults.Fault{
			{Class: faults.SensorDropout, Target: "bolus_button", Duration: horizon}}},
		{Name: "actuator-dead", Faults: []faults.Fault{
			{Class: faults.ActuatorDead, Target: "pump_motor", Duration: horizon}}},
		{Name: "isr-storm", Faults: []faults.Fault{
			{Class: faults.ISRStorm, Duration: horizon, Period: 2 * ms, Cost: 1800 * time.Microsecond}}},
	}
}

// FaultSweep runs the fault-attribution experiment: the Table I bolus
// scenario on the scheme-2 pipeline, once per catalogue fault plan,
// each run M-instrumented so the damage lands in measured delay
// segments. Every run is an independent deterministic simulation, so
// the sweep executes on the campaign engine; each plan's seeded fault
// streams derive from the campaign's per-run seed chain, making results
// byte-identical at any worker count.
func FaultSweep(opt FaultSweepOptions) (FaultSweepResult, error) {
	if opt.Samples <= 0 {
		opt.Samples = 10
	}
	req := gpca.REQ1()
	tc, err := gpca.TableIGenerator(opt.Samples, opt.Seed).Generate(req)
	if err != nil {
		return FaultSweepResult{}, err
	}
	plans := FaultCatalog(tc.Horizon(req))
	pb, err := gpca.Precompile()
	if err != nil {
		return FaultSweepResult{}, err
	}
	cfg := campaign.Config{Workers: opt.Workers, Seed: opt.Seed, OnProgress: opt.Progress}
	outs, err := campaign.Values(campaign.MapScratch(cfg, len(plans),
		func() *platform.Scratch { return &platform.Scratch{} },
		func(run campaign.Run, sc *platform.Scratch) (core.MResult, error) {
			runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, func() platform.Scheme { return platform.DefaultScheme2() }, sc), req)
			if err != nil {
				return core.MResult{}, err
			}
			runner.Prepare = faults.Prepare(plans[run.Index], run.Seed)
			rep, err := runner.RunRM(tc, true)
			if err != nil {
				return core.MResult{}, err
			}
			return *rep.M, nil
		}))
	if err != nil {
		return FaultSweepResult{}, err
	}
	res := FaultSweepResult{Results: outs}
	for i, o := range outs {
		res.Attributions = append(res.Attributions, faults.Attribute(plans[i], outs[0], o))
	}
	return res, nil
}

// SweepPoint is one configuration of the A2 sensitivity ablation.
type SweepPoint struct {
	Label      string
	CodePeriod sim.Time
	Mean       Segments // mean segments are reported via MeanInput etc.
	MeanInput  sim.Time
	MeanCode   sim.Time
	MeanOutput sim.Time
	MeanTotal  sim.Time
	PassRate   float64
}

// AblationPeriodSweep runs the A2 ablation: REQ1 delay segments as a
// function of the CODE(M) task period on the scheme-2 pipeline. It shows
// the code-delay segment scaling with the period while input and output
// segments stay put — the kind of design exploration the measured
// segments enable. Sweep points are independent configurations, so they
// execute in parallel on the campaign engine (workers 0 means GOMAXPROCS).
func AblationPeriodSweep(periods []sim.Time, samples int, seed uint64, workers int) ([]SweepPoint, error) {
	req := gpca.REQ1()
	tc, err := gpca.TableIGenerator(samples, seed).Generate(req)
	if err != nil {
		return nil, err
	}
	pb, err := gpca.Precompile()
	if err != nil {
		return nil, err
	}
	cfg := campaign.Config{Workers: workers, Seed: seed}
	return campaign.Values(campaign.MapScratch(cfg, len(periods),
		func() *platform.Scratch { return &platform.Scratch{} },
		func(run campaign.Run, sc *platform.Scratch) (SweepPoint, error) {
			period := periods[run.Index]
			factory := func(level platform.Instrument) (*platform.System, error) {
				s := platform.DefaultScheme2()
				s.CodePeriod = period
				return pb.NewSystem(s, level, sc)
			}
			runner, err := core.NewRunner(factory, req)
			if err != nil {
				return SweepPoint{}, err
			}
			rep, err := runner.RunRM(tc, true)
			if err != nil {
				return SweepPoint{}, err
			}
			mres := *rep.M
			agg := core.NewSegmentStats(mres)
			pass := 0
			for _, s := range mres.Samples {
				if s.Verdict == core.Pass {
					pass++
				}
			}
			return SweepPoint{
				Label:      fmt.Sprintf("code=%v", period),
				CodePeriod: period,
				MeanInput:  agg.Input.Mean,
				MeanCode:   agg.Code.Mean,
				MeanOutput: agg.Output.Mean,
				MeanTotal:  agg.Total.Mean,
				PassRate:   float64(pass) / float64(len(mres.Samples)),
			}, nil
		}))
}
