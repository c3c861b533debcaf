package rmtest_test

// Benchmark harness: one bench per table/figure of the paper's evaluation
// plus the ablations DESIGN.md calls out and micro-benchmarks of the
// substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks double as the regeneration entry points: each one
// executes the same experiment code as cmd/tablei / cmd/pumpsim, so the
// wall-clock cost of reproducing every result is measured directly.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/codegen"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/fourvar"
	"rmtest/internal/gpca"
	"rmtest/internal/interp"
	"rmtest/internal/platform"
	"rmtest/internal/rtos"
	"rmtest/internal/sim"
	"rmtest/internal/verify"
)

// --- Table I ---------------------------------------------------------

func benchScheme(b *testing.B, mk func() platform.Scheme, forceM bool) {
	req := gpca.REQ1()
	gen := core.Generator{
		N: 10, Start: 50 * time.Millisecond, Spacing: 4500 * time.Millisecond,
		Strategy: core.JitteredSpacing, Jitter: 200 * time.Millisecond, Seed: 42,
	}
	tc, err := gen.Generate(req)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := core.NewRunner(gpca.Factory(mk), req)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := runner.RunRM(tc, forceM)
		if err != nil {
			b.Fatal(err)
		}
		_ = rep
	}
}

// BenchmarkTableIScheme1 regenerates the scheme-1 column of Table I
// (R-testing passes; M-testing forced for the segment columns).
func BenchmarkTableIScheme1(b *testing.B) {
	benchScheme(b, func() platform.Scheme { return platform.DefaultScheme1() }, true)
}

// BenchmarkTableIScheme2 regenerates the scheme-2 column of Table I.
func BenchmarkTableIScheme2(b *testing.B) {
	benchScheme(b, func() platform.Scheme { return platform.DefaultScheme2() }, true)
}

// BenchmarkTableIScheme3 regenerates the scheme-3 column of Table I (the
// violating scheme; M-testing follows automatically).
func BenchmarkTableIScheme3(b *testing.B) {
	benchScheme(b, func() platform.Scheme { return platform.DefaultScheme3() }, false)
}

// BenchmarkTableIFull regenerates the complete Table I, all three
// schemes, ten samples each — the paper's entire evaluation table.
func BenchmarkTableIFull(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{Samples: 10, Seed: 42, ForceM: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = rmtest.RenderTableI(reports)
	}
}

// --- Fig. 2 (the model) ----------------------------------------------

// BenchmarkFig2ModelStep measures interpreting the Fig. 2 pump chart on
// the chart interpreter (the tests' executable model reference), one
// E_CLK tick per iteration.
func BenchmarkFig2ModelStep(b *testing.B) {
	cc, err := gpca.Chart().Compile()
	if err != nil {
		b.Fatal(err)
	}
	m := interp.NewMachine(cc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4500 == 0 {
			m.Step("i_BolusReq")
		} else {
			m.Step()
		}
	}
}

// BenchmarkFig2GeneratedStep measures the generated-code executor on the
// same chart — the CODE(M) artifact the platform actually runs.
func BenchmarkFig2GeneratedStep(b *testing.B) {
	cc, err := gpca.Chart().Compile()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := codegen.Generate(cc)
	if err != nil {
		b.Fatal(err)
	}
	e := codegen.NewExec(prog, codegen.ZeroCostModel(), nil, nil)
	mask := e.EventMask("i_BolusReq")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4500 == 0 {
			e.Step(mask)
		} else {
			e.Step(0)
		}
	}
}

// BenchmarkFig2Verification measures the model-level verification of
// REQ1 (the Design Verifier step of Fig. 1). It reports the abstract
// states visited per check as states/op, and fails unless that is the
// 12,003 the checker has always visited, and the program steps the
// check ran as steps/op: the checker's work, which the regression gate
// holds as a count.
func BenchmarkFig2Verification(b *testing.B) {
	cc, err := gpca.Chart().Compile()
	if err != nil {
		b.Fatal(err)
	}
	prop := verify.ResponseProperty{
		Name: "REQ1", Event: "i_BolusReq", InState: "Idle",
		Output: "o_MotorState", Target: func(v int64) bool { return v >= 1 },
		WithinTicks: 100,
	}
	var res verify.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = verify.CheckResponse(cc, prop, verify.Options{})
		if err != nil || res.Outcome != verify.Holds {
			b.Fatalf("%v %v", res.Outcome, err)
		}
	}
	if res.Visited != 12003 {
		b.Fatalf("visited %d states, want 12003", res.Visited)
	}
	b.ReportMetric(float64(res.Visited), "states/op")
	b.ReportMetric(float64(res.Steps), "steps/op")
}

// --- Fig. 3 (delay segments) -----------------------------------------

// BenchmarkFig3DelaySegments regenerates the Fig. 3 measurement: one
// bolus request on scheme 1 with full M-level instrumentation, matched
// into the m->i->o->c chain with its two transition delays.
func BenchmarkFig3DelaySegments(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seg, err := rmtest.Fig3Experiment(rmtest.Scheme1())
		if err != nil {
			b.Fatal(err)
		}
		if len(seg.Transitions) != 2 {
			b.Fatalf("transitions: %v", seg.Transitions)
		}
	}
}

// --- Ablations --------------------------------------------------------

// BenchmarkAblationBaselineVsRM runs the A1 ablation: black-box baseline
// monitor vs the layered R-M flow on identical scheme-3 stimuli.
func BenchmarkAblationBaselineVsRM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		info, err := rmtest.AblationBaselineVsRM(10, 42)
		if err != nil {
			b.Fatal(err)
		}
		if info.RMFacts <= 2*info.Violations {
			b.Fatal("ablation inverted")
		}
	}
}

// BenchmarkAblationPeriodSweep runs the A2 ablation: REQ1 segments as a
// function of the CODE(M) task period.
func BenchmarkAblationPeriodSweep(b *testing.B) {
	periods := []time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rmtest.AblationPeriodSweep(periods, 6, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks --------------------------------------

// BenchmarkKernelScheduleFire measures pure event-queue throughput: one
// schedule plus one fire per op in front of a standing population of
// 256 pending events. The standing events fill the kernel's run and
// leave the rest in its heap, and the new event comes before all of
// them, so each op is one insertion into the run and one pop from it.
// This is the benchmark the kernel's queue/pool trajectory is tracked
// with (BENCH_kernel.json; see EXPERIMENTS.md).
func BenchmarkKernelScheduleFire(b *testing.B) {
	k := sim.New()
	fn := func() {}
	// Standing events parked far beyond the benchmark's virtual horizon:
	// they stay pending without ever firing.
	for i := 0; i < 256; i++ {
		k.At(1000*time.Hour+time.Duration(i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Microsecond, fn)
		k.Step()
	}
}

// BenchmarkKernelCancel measures the schedule-then-cancel path (timeout
// watchdogs that almost never fire — the verdict machines' steady state).
func BenchmarkKernelCancel(b *testing.B) {
	k := sim.New()
	fn := func() {}
	for i := 0; i < 256; i++ {
		k.At(1000*time.Hour+time.Duration(i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := k.After(time.Millisecond, fn)
		e.Cancel()
	}
}

// BenchmarkKernelLongSchedule measures the event queue under a long
// schedule made up front, as rmtest -n 10000 schedules its 10,000
// stimuli's presses and releases before the run starts: 20,000 one-shot
// events in time order, 10 ms apart in pairs, and a 5 ms periodic tick
// beside them, run to the last event. One op schedules and fires them
// all on a reset kernel, and it reports the events fired per op.
func BenchmarkKernelLongSchedule(b *testing.B) {
	const stimuli = 10000
	k := sim.New()
	fn := func() {}
	tick := func(uint64) {}
	run := func() {
		k.Reset()
		var last sim.Time
		for s := 0; s < stimuli; s++ {
			at := sim.Time(s) * 10 * time.Millisecond
			k.At(at, fn)
			last = at + 2*time.Millisecond
			k.At(last, fn)
		}
		k.Periodic(0, 5*time.Millisecond, tick)
		k.Run(last)
	}
	// One untimed op fills the kernel's pool, so a timed op allocates
	// only its ticker.
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(k.EventsFired()), "events/op")
}

// BenchmarkTraceRecordQuery measures the fourvar.Trace hot mix of a
// campaign run: streaming appends across four signals with a FirstAt
// query every fourth event (a binary search by time, then a scan for the
// signal), and a periodic Reset as the campaign scratch reuse performs
// between runs. One untimed run of records between two resets grows the
// trace first, which allocs/op would otherwise count.
func BenchmarkTraceRecordQuery(b *testing.B) {
	tr := fourvar.NewTrace()
	names := [4]string{"btn", "i_Btn", "o_Motor", "motor"}
	pred := func(v int64) bool { return v >= 0 }
	var at sim.Time
	op := func(i int) {
		if i%(1<<14) == 0 {
			tr.Reset()
			at = 0
		}
		at += sim.Time(i%3) * time.Microsecond
		tr.Record(fourvar.Kind(i%4), names[i%4], int64(i&1), at)
		if i%4 == 3 {
			tr.FirstAt(fourvar.Controlled, "motor", at/2, pred)
		}
	}
	for i := 0; i < 1<<14; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// BenchmarkSimKernelEvent measures raw discrete-event dispatch. One
// untimed event fills the kernel's pool.
func BenchmarkSimKernelEvent(b *testing.B) {
	k := sim.New()
	op := func() {
		k.After(time.Microsecond, func() {})
		k.Step()
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkRTOSPingPong is the RTOS rung of the benchmark ladder: two
// equal-priority periodic tasks that each compute 5 µs per 10 µs
// period, offset by 5 µs so that each release ends where the other
// task's begins, so nearly all the work is the scheduler releasing task
// bodies and switching between them. One op is one virtual millisecond
// of a single Run over b.N of them, and it reports the context switches
// per op. An untimed millisecond of the same task set, on the same kernel
// reset, fills the kernel's pool first.
func BenchmarkRTOSPingPong(b *testing.B) {
	k := sim.New()
	spawn := func() *rtos.Scheduler {
		k.Reset()
		s := rtos.New(k)
		const us = time.Microsecond
		for i, name := range []string{"a", "b"} {
			s.SpawnPeriodic(name, 1, sim.Time(i)*5*us, 10*us, func(t *rtos.Task) {
				t.Compute(5 * us)
			})
		}
		return s
	}
	spawn()
	k.Run(time.Millisecond)
	s := spawn()
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(sim.Time(b.N) * time.Millisecond)
	b.ReportMetric(float64(s.ContextSwitches())/float64(b.N), "switches/op")
}

// BenchmarkPumpSimulationSecond measures simulating one virtual second of
// the scheme-2 pump, including sensors, queues and CODE(M) execution.
func BenchmarkPumpSimulationSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := platform.NewSystem(gpca.PlatformConfig(), platform.DefaultScheme2(), platform.MLevel)
		if err != nil {
			b.Fatal(err)
		}
		sys.Env.PulseAt(40*time.Millisecond, gpca.SigBolusButton, 1, 0, gpca.ButtonPress)
		sys.Run(time.Second)
	}
}

// --- Instrumentation overhead ----------------------------------------

// benchInstrumentation measures the wall-clock cost of simulating ten
// virtual seconds of the scheme-2 pump at an instrumentation level. The
// two levels observe identical virtual executions (asserted by tests);
// the benchmark quantifies the host-side cost of the extra M-level
// probes.
func benchInstrumentation(b *testing.B, level platform.Instrument) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := platform.NewSystem(gpca.PlatformConfig(), platform.DefaultScheme2(), level)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			sys.Env.PulseAt(time.Duration(50+4500*k)*time.Millisecond, gpca.SigBolusButton, 1, 0, gpca.ButtonPress)
		}
		sys.Run(10 * time.Second)
	}
}

// BenchmarkInstrumentationRLevel is the R-testing probe configuration.
func BenchmarkInstrumentationRLevel(b *testing.B) { benchInstrumentation(b, platform.RLevel) }

// BenchmarkInstrumentationMLevel adds i/o-boundary and transition probes.
func BenchmarkInstrumentationMLevel(b *testing.B) { benchInstrumentation(b, platform.MLevel) }

// BenchmarkRequirementsMatrix regenerates the full requirement x scheme
// conformance matrix.
func BenchmarkRequirementsMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells, err := rmtest.RequirementsMatrix(4, 42, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 9 {
			b.Fatal("matrix incomplete")
		}
	}
}

// BenchmarkModelVerificationInvariant measures the safety-invariant
// checker on the pump model, and reports the program steps each check
// ran as steps/op.
func BenchmarkModelVerificationInvariant(b *testing.B) {
	cc, err := gpca.Chart().Compile()
	if err != nil {
		b.Fatal(err)
	}
	prop := verify.InvariantProperty{
		Name:  "no-motor-in-alarm",
		Reads: []string{"o_MotorState"},
		Holds: func(state string, vars map[string]int64) bool {
			return state != "EmptyAlarm" || vars["o_MotorState"] == 0
		},
	}
	var res verify.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = verify.CheckInvariant(cc, prop, verify.Options{})
		if err != nil || res.Outcome != verify.Holds {
			b.Fatalf("%v %v", res.Outcome, err)
		}
	}
	b.ReportMetric(float64(res.Steps), "steps/op")
}

// BenchmarkVerifyExtended measures the bounded response check on the
// larger pump model: gpca-extended's bolus-in-basal property, stopped at
// 3,000 states. Its states differ in more than the tick, so its step
// classes repeat less than gpca's. It reports states/op and steps/op, and
// fails unless the check visits the 3,000 states.
func BenchmarkVerifyExtended(b *testing.B) {
	cc, err := gpca.ExtendedChart().Compile()
	if err != nil {
		b.Fatal(err)
	}
	prop := verify.ResponseProperty{
		Name: "bolus-in-basal", Event: "i_BolusReq", InState: "Basal",
		Output: "o_MotorState", Target: func(v int64) bool { return v >= 10 },
		WithinTicks: 10,
	}
	var res verify.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = verify.CheckResponse(cc, prop, verify.Options{MaxVisited: 3000})
		if err != nil || res.Outcome != verify.Bounded {
			b.Fatalf("%v %v", res.Outcome, err)
		}
	}
	if res.Visited != 3000 {
		b.Fatalf("visited %d states, want 3000", res.Visited)
	}
	b.ReportMetric(float64(res.Visited), "states/op")
	b.ReportMetric(float64(res.Steps), "steps/op")
}

// BenchmarkLintGPCA measures the full static-analysis pass — compile,
// chart-level checks, abstract interpretation of every fragment and the
// WCET chain exploration — on the pump model.
func BenchmarkLintGPCA(b *testing.B) {
	chart := rmtest.PumpChart()
	cost := rmtest.DefaultCostModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := rmtest.Lint(chart, cost)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Findings) != 0 {
			b.Fatalf("unexpected findings:\n%s", rep)
		}
	}
}

// BenchmarkPlatformLint measures the platform static analyzer on six
// tasks over four priority levels, two of them equal-priority peers, and
// two queues: one emptied by a drain-all consumer and one by a
// fixed-count consumer, so response-time analysis and both queue-bound
// cases do real work per iteration.
func BenchmarkPlatformLint(b *testing.B) {
	ms := time.Millisecond
	cfg := rmtest.PlatformLintConfig{
		Tasks: []rmtest.PlatformTaskSpec{
			{Name: "ctrl", Prio: 5, Period: 10 * ms, WCET: ms,
				Sends: []rmtest.PlatformQueueUse{{Queue: "cmd", Items: 2}}},
			{Name: "io", Prio: 4, Period: 20 * ms, WCET: 2 * ms,
				Recvs: []rmtest.PlatformQueueUse{{Queue: "cmd", DrainAll: true}},
				Sends: []rmtest.PlatformQueueUse{{Queue: "log", Items: 1}}},
			{Name: "net", Prio: 3, Period: 40 * ms, WCET: 4 * ms},
			{Name: "ui", Prio: 2, Period: 80 * ms, WCET: 4 * ms},
			{Name: "logger", Prio: 1, Period: 80 * ms, WCET: 8 * ms,
				Recvs: []rmtest.PlatformQueueUse{{Queue: "log", Items: 4}}},
			{Name: "bg", Prio: 1, Period: 160 * ms, WCET: 8 * ms},
		},
		Queues: []rmtest.PlatformQueueSpec{
			{Name: "cmd", Capacity: 8},
			{Name: "log", Capacity: 16},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := rmtest.PlatformLint(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Fatal()) != 0 {
			b.Fatalf("unexpected fatal findings:\n%s", rep)
		}
	}
}

// --- Campaign engine -------------------------------------------------

// runCounts sums deterministic counts over full-horizon runs: kernel
// events fired, context switches, the times CODE(M)'s step function ran
// (E_CLK ticks less those skipped as idle), and the transitions it took.
type runCounts struct {
	runs                                     int
	events, switches, stepCalls, transitions uint64
}

func (c *runCounts) add(sys *platform.System) {
	c.runs++
	c.events += sys.Kernel.EventsFired()
	c.switches += sys.Sched.ContextSwitches()
	c.stepCalls += sys.Exec.Steps() - sys.Exec.Elided()
	c.transitions += sys.Exec.TransitionsTaken()
}

// perRun returns n averaged over the runs.
func (c *runCounts) perRun(n uint64) float64 { return float64(n) / float64(c.runs) }

// tableIRunCounts returns the counts of one full-horizon M-level Table I
// run on each of the three schemes.
func tableIRunCounts(b *testing.B) runCounts {
	req := gpca.REQ1()
	tc, err := gpca.TableIGenerator(10, 42).Generate(req)
	if err != nil {
		b.Fatal(err)
	}
	schemes := []func() platform.Scheme{
		func() platform.Scheme { return platform.DefaultScheme1() },
		func() platform.Scheme { return platform.DefaultScheme2() },
		func() platform.Scheme { return platform.DefaultScheme3() },
	}
	var counts runCounts
	for _, scheme := range schemes {
		runner, err := core.NewRunner(gpca.Factory(scheme), req)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := runner.Setup(platform.MLevel, tc)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(tc.Horizon(req))
		counts.add(sys)
	}
	return counts
}

// BenchmarkCampaignTableI measures the full Table I regeneration through
// the campaign engine at two worker-pool sizes. The workers=1 case is the
// sequential baseline; the workers=GOMAXPROCS case shards the three
// scheme columns across the pool. On a multi-core host the parallel case
// approaches a 3x speedup (one worker per scheme); results are
// byte-identical at every pool size (see
// TestCampaignTableIMatchesSequentialGolden). The events/run,
// stepcalls/run, switches/run and transitions/run metrics come from
// full-horizon runs outside the timed loop, so the live verdicts' early
// stop does not move them.
func BenchmarkCampaignTableI(b *testing.B) {
	counts := tableIRunCounts(b)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{
					Samples: 10, Seed: 42, ForceM: true, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = reports
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			// Each iteration executes 3 campaign runs, one RunRM simulation
			// per scheme; allocs/run and B/run are the GC-churn metrics the
			// scratch reuse targets.
			const runsPerIter = 3
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*runsPerIter), "allocs/run")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*runsPerIter), "B/run")
			b.ReportMetric(counts.perRun(counts.events), "events/run")
			b.ReportMetric(counts.perRun(counts.stepCalls), "stepcalls/run")
			b.ReportMetric(counts.perRun(counts.switches), "switches/run")
			b.ReportMetric(counts.perRun(counts.transitions), "transitions/run")
		})
	}
}

// BenchmarkCampaignMatrix measures the 9-cell requirements matrix, the
// widest fan-out in the repo (9 independent simulations).
func BenchmarkCampaignMatrix(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rmtest.RequirementsMatrix(4, 42, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceFirstAt measures the event-trace query that M-level
// annotation leans on, on a trace far longer than a campaign run's: 100k
// events across four kinds, queried at random instants. Each query is a
// binary search by time, then a scan to the first matching event.
func BenchmarkTraceFirstAt(b *testing.B) {
	tr := fourvar.NewTrace()
	r := sim.NewRand(1)
	names := []string{"btn", "motor", "i_Btn", "o_Motor"}
	var at sim.Time
	for i := 0; i < 100_000; i++ {
		at += sim.Time(r.Intn(5)) * time.Millisecond
		tr.Record(fourvar.Kind(r.Intn(4)), names[r.Intn(len(names))], int64(r.Intn(2)), at)
	}
	queries := make([]sim.Time, 1024)
	for i := range queries {
		queries[i] = sim.Time(r.Intn(int(at/time.Millisecond))) * time.Millisecond
	}
	on := func(v int64) bool { return v == 1 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		tr.FirstAt(fourvar.Controlled, "motor", q, on)
	}
}

// --- Verdict engine ---------------------------------------------------

// BenchmarkVerdictReplay measures the verdict layer alone: each op replays
// one recorded Table I scheme-1 R trace (ten samples, full horizon)
// through the verdict machines with Runner.Evaluate. No simulation runs
// inside the timed loop, so ns/op and allocs/op are the per-run cost of
// judging a trace.
func BenchmarkVerdictReplay(b *testing.B) {
	req := gpca.REQ1()
	tc, err := core.Generator{
		N: 10, Start: 50 * time.Millisecond, Spacing: 4500 * time.Millisecond,
		Strategy: core.JitteredSpacing, Jitter: 200 * time.Millisecond, Seed: 42,
	}.Generate(req)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := core.NewRunner(gpca.Factory(func() platform.Scheme { return platform.DefaultScheme1() }), req)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := runner.Setup(platform.RLevel, tc)
	if err != nil {
		b.Fatal(err)
	}
	sys.Run(tc.Horizon(req))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := runner.Evaluate(sys, tc); len(res) != 10 {
			b.Fatal("bad result")
		}
	}
	b.ReportMetric(float64(sys.Trace.Len()), "events/trace")
}

// faultSweepRunCounts returns the counts of one full-horizon run of the
// fault sweep per catalogue plan: the Table I case at M level on scheme
// 2, each plan armed with its sweep seed.
func faultSweepRunCounts(b *testing.B) runCounts {
	req := gpca.REQ1()
	tc, err := gpca.TableIGenerator(10, 42).Generate(req)
	if err != nil {
		b.Fatal(err)
	}
	plans := rmtest.FaultCatalog(tc.Horizon(req))
	seeds := campaign.Seeds(42, len(plans))
	var counts runCounts
	for i, plan := range plans {
		runner, err := core.NewRunner(gpca.Factory(func() platform.Scheme { return platform.DefaultScheme2() }), req)
		if err != nil {
			b.Fatal(err)
		}
		runner.Prepare = faults.Prepare(plan, seeds[i])
		sys, err := runner.Setup(platform.MLevel, tc)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(tc.Horizon(req))
		counts.add(sys)
	}
	return counts
}

// BenchmarkCampaignFaulted measures the fault-attribution sweep: the
// Table I scenario once per catalogue fault plan (10 plans, 10 samples
// each) on the campaign engine. The allocs/run and B/run metrics are the
// GC-churn gate for the fault layer: arming a plan is a handful of window
// events on the pooled kernel, and the unfaulted baseline plan must ride
// the same zero-alloc scratch-reuse path as the plain campaign. The
// events/run, switches/run and transitions/run metrics come from
// full-horizon runs outside the timed loop, as CampaignTableI's do.
func BenchmarkCampaignFaulted(b *testing.B) {
	counts := faultSweepRunCounts(b)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			runsPerIter := 0
			for i := 0; i < b.N; i++ {
				res, err := rmtest.FaultSweep(rmtest.FaultSweepOptions{
					Samples: 10, Seed: 42, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				// One M-level campaign run per catalogue plan.
				runsPerIter = len(res.Attributions)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*runsPerIter), "allocs/run")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*runsPerIter), "B/run")
			b.ReportMetric(counts.perRun(counts.events), "events/run")
			b.ReportMetric(counts.perRun(counts.switches), "switches/run")
			b.ReportMetric(counts.perRun(counts.transitions), "transitions/run")
		})
	}
}

// tcgenTarget is the GPCA coverage-generation target shared by the
// generation benchmarks.
func tcgenTarget(b testing.TB) rmtest.GenTarget {
	pb, err := gpca.Precompile()
	if err != nil {
		b.Fatal(err)
	}
	return rmtest.GenTarget{
		Prebuilt:    pb,
		Scheme:      func() platform.Scheme { return platform.DefaultScheme2() },
		Req:         gpca.REQ1(),
		PhasePeriod: 40 * time.Millisecond,
		Bins:        8,
		Settle:      4500 * time.Millisecond,
	}
}

// BenchmarkTCGenCampaign measures the coverage-directed test-case
// generation loop on the GPCA chart: each iteration is a full
// generate-evaluate-extend search to adequacy on the campaign engine
// (M-level runs, adequacy measurement, probe planning). Every round
// extends the schedule, so the search's memo never answers a candidate
// and every evaluation runs from reset.
func BenchmarkTCGenCampaign(b *testing.B) {
	target := tcgenTarget(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rmtest.CoverageDirectedGenerator().Generate(target,
			rmtest.GenOptions{Seed: 42, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecStep measures the generated-code executor's steady-state
// Step on the GPCA program: a bolus request every 4,500 steps and plain
// clock ticks between, every guard and action on the bytecode VM.
// allocs/op must stay exactly zero, and that is gated through
// BENCH_kernel.json.
func BenchmarkExecStep(b *testing.B) {
	cc, err := gpca.Chart().Compile()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := codegen.Generate(cc)
	if err != nil {
		b.Fatal(err)
	}
	e := codegen.NewExec(prog, codegen.ZeroCostModel(), nil, nil)
	mask := e.EventMask("i_BolusReq")
	// One untimed step that fires transitions grows the executor's
	// scratch; Reset keeps it.
	e.Step(mask)
	e.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4500 == 0 {
			e.Step(mask)
		} else {
			e.Step(0)
		}
	}
}

// --- Search-based generation ------------------------------------------

// BenchmarkTCGenFalsify runs one falsification search to budget
// exhaustion on the scheme-2 GPCA target. Scheme 2 is schedulable, so
// REQ1 never violates and every search spends the full budget in
// mutantsPerRound-sized candidate batches, each evaluated as one
// campaign. Mutants the search has already scored are answered from its
// memo; the rest run from reset.
func BenchmarkTCGenFalsify(b *testing.B) {
	target := tcgenTarget(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := rmtest.GenOptions{Seed: 42, Workers: 1, Budget: 24}
		if _, err := rmtest.FalsificationGenerator().Generate(target, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShrink delta-debugs a violating schedule on scheme 2. REQ1's
// bound is tightened to 1ms so the seeded schedule violates on the
// schedulable scheme and ddmin has something to preserve, and the
// tester's timeout to 600ms, an order of magnitude above the real
// response. The 12-stimulus input at 1.5s spacing after a 10s warm-up
// gives ddmin several rounds of complement batches, each evaluated from
// reset.
func BenchmarkShrink(b *testing.B) {
	target := tcgenTarget(b)
	req := gpca.REQ1()
	req.Bound = time.Millisecond
	req.Timeout = 600 * time.Millisecond
	target.Req = req
	target.Start = 10 * time.Second
	target.Settle = 1500 * time.Millisecond
	input, err := rmtest.FalsificationGenerator().Generate(target,
		rmtest.GenOptions{Seed: 42, Workers: 1, Budget: 1, Samples: 12})
	if err != nil {
		b.Fatal(err)
	}
	if !input.Violated {
		b.Fatal("seed schedule does not violate the tightened bound")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := rmtest.GenOptions{Seed: 42, Workers: 1, Budget: 48}
		if _, err := rmtest.ShrinkingGenerator(input.Schedule).Generate(target, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateSuite measures the generation suite behind
// `tablei -gen` at its default budgets: coverage, falsification and
// shrinking on the GPCA and rail-crossing charts, seed 42. The
// workers=1 case is the sequential reference, every search inline one
// after another; the workers=GOMAXPROCS case runs the suite's four
// search chains at once on one campaign, each evaluating its candidate
// batches on a campaign of its own. The suites are byte-identical at
// every pool size (see TestGenerateSuiteMatchesGolden).
func BenchmarkGenerateSuite(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			run := func() {
				if _, err := rmtest.GenerateSuite(rmtest.GenSuiteOptions{Seed: 42, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			// One untimed suite does the lazy set-up, which allocs/op
			// would otherwise count.
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
