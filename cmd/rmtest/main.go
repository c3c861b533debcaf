// Command rmtest drives the full layered flow for one requirement on one
// implementation scheme: model-level verification, R-testing, and — on
// violation — M-testing with delay-segment diagnosis.
//
// Usage:
//
//	rmtest [-req REQ1|REQ2|REQ3] [-scheme 1|2|3] [-n samples] [-seed n] [-force-m] [-faults] [-pprof prefix]
//	rmtest lint [-chart gpca|gpca-extended|railcrossing] [-json] [-rta] [-platform scheme2|scheme3]
//	rmtest gen [-budget n] [-target ratio] [-seed n] [-workers n] [-csv] [-progress] [-pprof prefix]
//
// With -faults the command runs the fault-attribution experiment
// instead of the single R-M flow: the REQ1 bolus scenario on scheme2,
// once per catalogue fault plan, printing the attribution table that
// checks M-testing blames each injected fault's expected delay segment
// (-n and -seed compose with it).
//
// The lint subcommand runs the static-analysis layer on a shipped chart:
// model-level findings (reachability, guard determinism, variable usage,
// temporal sanity), bytecode-level checks (stack discipline, division by
// zero) and static WCET bounds. With -platform it additionally runs the
// platform static analyzer on the named scheme's task/queue
// configuration: response-time bounds of every task and queue-capacity
// sufficiency; with -rta it prints the response-time analysis of the
// scheme-2 pipeline from static WCETs. Both analyse the pump's pipeline,
// so both require -chart gpca. It exits nonzero when any fatal finding —
// chart or platform — is present, so it can gate CI; -json emits one
// machine-readable document covering both layers.
//
// The gen subcommand runs the test-case generation pipeline on the GPCA
// and rail-crossing charts: the coverage-directed generator extends a
// seeded schedule with adequacy feedback on scheme2, the falsification
// search hill-climbs stimulus instants toward the deadline on scheme3,
// and any violating schedule is delta-debugged down to a minimal
// counterexample. Suites are reproducible from -seed and byte-identical
// for any -workers value. Each search memoises its own candidate
// evaluations; the evaluations answered from a memo are reported on
// stderr, and -progress reports every executed simulation run. With
// more than one worker the searches run at once, so their -progress
// lines interleave.
//
// -pprof PREFIX writes PREFIX.cpu.pprof and PREFIX.heap.pprof profiles
// of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rmtest"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/profiles"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		runLint(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		runGen(os.Args[2:])
		return
	}
	reqName := flag.String("req", "REQ1", "requirement: REQ1, REQ2 or REQ3")
	schemeNo := flag.Int("scheme", 3, "implementation scheme (1, 2 or 3)")
	n := flag.Int("n", 10, "number of test samples")
	seed := flag.Uint64("seed", 42, "stimulus jitter seed")
	forceM := flag.Bool("force-m", false, "run M-testing even when R-testing passes")
	cover := flag.Bool("coverage", false, "measure test adequacy and suggest extra stimuli")
	rtaFlag := flag.Bool("rta", false, "print the analytic response-time prediction for the scheme")
	faultsFlag := flag.Bool("faults", false, "run the fault-attribution experiment (REQ1 on scheme2, one run per catalogue fault plan)")
	pprofPrefix := flag.String("pprof", "", "write PREFIX.cpu.pprof and PREFIX.heap.pprof profiles of the run")
	flag.Parse()
	if err := checkSamples(*n); err != nil {
		usageError(flag.CommandLine, err)
	}

	stopProfiles := startProfiles(*pprofPrefix)
	defer stopProfiles()

	if *faultsFlag {
		res, err := rmtest.FaultSweep(rmtest.FaultSweepOptions{Samples: *n, Seed: *seed})
		if err != nil {
			fail("faults: %v", err)
		}
		fmt.Println("== fault attribution (REQ1, scheme2) ==")
		fmt.Print(rmtest.RenderFaultTable(res.Attributions))
		return
	}

	var req rmtest.Requirement
	switch *reqName {
	case "REQ1":
		req = gpca.REQ1()
	case "REQ2":
		req = gpca.REQ2()
	case "REQ3":
		req = gpca.REQ3()
	default:
		fail("unknown requirement %q", *reqName)
	}
	var mk func() platform.Scheme
	switch *schemeNo {
	case 1:
		mk = func() platform.Scheme { return platform.DefaultScheme1() }
	case 2:
		mk = func() platform.Scheme { return platform.DefaultScheme2() }
	case 3:
		mk = func() platform.Scheme { return platform.DefaultScheme3() }
	default:
		fail("scheme must be 1, 2 or 3")
	}

	fmt.Printf("== requirement ==\n%s\n\n", req)

	// Phase 0: model-level verification (REQ1 only has a chart-level
	// form; for the others we verify the alarm responses).
	fmt.Println("== model-level verification (Design Verifier step) ==")
	prop := modelProp(*reqName)
	res, err := rmtest.VerifyResponse(rmtest.PumpChart(), prop, rmtest.VerifyOptions{})
	if err != nil {
		fail("verify: %v", err)
	}
	fmt.Printf("%s\n\n", res)
	if res.Outcome == rmtest.Violated {
		fail("requirement does not hold at model level; fix the model first")
	}

	if *rtaFlag && *schemeNo != 1 {
		fmt.Println("== analytic prediction (response-time analysis) ==")
		an := analyzePipeline(*schemeNo == 3)
		fmt.Print(rmtest.RenderRTA(an.Platform.Tasks))
		if an.Bound < 0 {
			fmt.Println("pipeline not schedulable: REQ1 violation predicted")
		} else {
			fmt.Printf("end-to-end m->c bound: %v (REQ1 predicted %s)\n",
				an.Bound, map[bool]string{true: "conformant", false: "violating"}[an.PredictConforms])
		}
		fmt.Println()
	}

	// Phase 1+2: layered R-M testing on the implemented system.
	tc, err := gpca.TableIGenerator(*n, *seed).Generate(req)
	if err != nil {
		fail("generate: %v", err)
	}
	runner, err := rmtest.NewRunner(gpca.Factory(mk), req)
	if err != nil {
		fail("runner: %v", err)
	}
	rep, err := runner.RunRM(tc, *forceM)
	if err != nil {
		fail("run: %v", err)
	}
	fmt.Printf("== R-testing (%s) ==\n", rep.R.Scheme)
	for _, s := range rep.R.Samples {
		fmt.Printf("  %s\n", s)
	}
	if rep.R.Passed() {
		fmt.Println("R-testing: PASS — the implemented system conforms to the requirement")
	} else {
		fmt.Printf("R-testing: FAIL — samples %v violate the requirement\n", rep.R.Violations())
	}
	if rep.M == nil {
		return
	}
	fmt.Println("\n== M-testing (delay segments) ==")
	for _, s := range rep.M.Samples {
		if !s.SegmentsOK {
			fmt.Printf("  #%d [%v]: no full m->i->o->c chain\n", s.Index, s.Verdict)
			continue
		}
		fmt.Printf("  #%d [%v]: %s\n", s.Index, s.Verdict, s.Segments)
	}
	if len(rep.Diagnosis) > 0 {
		fmt.Println("\n== diagnosis ==")
		fmt.Print(rmtest.RenderFindings(rep.Diagnosis))
	}
	if *cover {
		fmt.Println("\n== test adequacy (coverage) ==")
		cov := rmtest.MeasureCoverage(*rep.M, 40*time.Millisecond, 8)
		fmt.Print(cov.String())
		if extra := rmtest.SuggestStimuli(cov.Phase, tc.Stimuli[len(tc.Stimuli)-1], 4500*time.Millisecond); len(extra) > 0 {
			fmt.Println("suggested additional stimuli (uncovered phases):")
			for _, at := range extra {
				fmt.Printf("  %v\n", at)
			}
		}
		if hints := rmtest.SuggestScenarios(*rep.M, cov); len(hints) > 0 {
			fmt.Println("suggested scenarios (uncovered transitions):")
			for _, h := range hints {
				fmt.Printf("  %s\n", h)
			}
		}
	}
}

func modelProp(req string) rmtest.ResponseProperty {
	switch req {
	case "REQ2":
		return rmtest.ResponseProperty{
			Name: "REQ2-model", Event: "i_EmptyAlarm", InState: "Idle",
			Output: "o_BuzzerState", Target: func(v int64) bool { return v == 1 },
			TargetDesc: "== 1", WithinTicks: 250,
		}
	case "REQ3":
		return rmtest.ResponseProperty{
			Name: "REQ3-model", Event: "i_ClearAlarm", InState: "EmptyAlarm",
			Output: "o_BuzzerState", Target: func(v int64) bool { return v == 0 },
			TargetDesc: "== 0", WithinTicks: 200,
		}
	default:
		return rmtest.ResponseProperty{
			Name: "REQ1-model", Event: "i_BolusReq", InState: "Idle",
			Output: "o_MotorState", Target: func(v int64) bool { return v >= 1 },
			TargetDesc: ">= 1", WithinTicks: 100,
		}
	}
}

// runGen implements the gen subcommand.
func runGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	budget := fs.Int("budget", 0, "evaluation budget per strategy (0 = strategy defaults)")
	target := fs.Float64("target", 0, "phase-bin adequacy target for the coverage-directed generator (0 = default 0.9)")
	seed := fs.Uint64("seed", 42, "generation seed; the same seed reproduces the same suites")
	workers := fs.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS); suites are identical for any value")
	asCSV := fs.Bool("csv", false, "emit byte-stable CSV instead of the formatted summary")
	progress := fs.Bool("progress", false, "report campaign progress on stderr")
	pprofPrefix := fs.String("pprof", "", "write PREFIX.cpu.pprof and PREFIX.heap.pprof profiles of the run")
	fs.Parse(args)
	if err := checkGen(*budget, *workers, *target); err != nil {
		usageError(fs, err)
	}

	stopProfiles := startProfiles(*pprofPrefix)
	defer stopProfiles()

	opt := rmtest.GenSuiteOptions{
		Budget: *budget, Seed: *seed, Workers: *workers,
		TargetPhase: *target,
	}
	if *progress {
		opt.Progress = func(p rmtest.CampaignProgress) {
			fmt.Fprintln(os.Stderr, "rmtest:", p)
		}
	}
	runs, err := rmtest.GenerateSuite(opt)
	if err != nil {
		fail("gen: %v", err)
	}
	fmt.Fprint(os.Stderr, rmtest.RenderGenReuse(runs))
	if *asCSV {
		fmt.Print(rmtest.RenderGenCSV(runs))
		return
	}
	fmt.Println("== generated test suites (coverage / falsification / shrinking) ==")
	fmt.Print(rmtest.RenderGenSummary(runs))
}

// startProfiles starts the -pprof profiles and returns the function that
// stops them; a failure either way ends the command.
func startProfiles(prefix string) func() {
	stop, err := profiles.Start(prefix)
	if err != nil {
		fail("pprof: %v", err)
	}
	return func() {
		if err := stop(); err != nil {
			fail("pprof: %v", err)
		}
	}
}

// runLint implements the lint subcommand.
func runLint(args []string) {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	chartName := fs.String("chart", "gpca", "chart to analyze: gpca, gpca-extended or railcrossing")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	withRTA := fs.Bool("rta", false, "also run response-time analysis of the pump's scheme-2 pipeline from static WCETs (requires -chart gpca)")
	platName := fs.String("platform", "", "also run the platform static analyzer on a pump scheme configuration: scheme2 or scheme3 (requires -chart gpca)")
	fs.Parse(args)

	var chart *rmtest.Chart
	switch *chartName {
	case "gpca":
		chart = rmtest.PumpChart()
	case "gpca-extended", "gpca-ext":
		chart = rmtest.PumpExtendedChart()
	case "railcrossing", "crossing":
		chart = rmtest.CrossingChart()
	default:
		fail("unknown chart %q (want gpca, gpca-extended or railcrossing)", *chartName)
	}
	// -platform and -rta analyse the pump pipeline, whose model is tied
	// to the GPCA board, so they only pair with the gpca chart.
	if *chartName != "gpca" && (*platName != "" || *withRTA) {
		fail("-platform and -rta require -chart gpca (the pipeline model is the pump's)")
	}
	rep, err := rmtest.Lint(chart, rmtest.DefaultCostModel())
	if err != nil {
		fail("lint: %v", err)
	}

	// Platform analysis: the pump pipeline on the named scheme.
	var plat *rmtest.PlatformReport
	if *platName != "" {
		if *platName != "scheme2" && *platName != "scheme3" {
			fail("unknown platform %q (want scheme2 or scheme3)", *platName)
		}
		plat = analyzePipeline(*platName == "scheme3").Platform
	}

	if *asJSON {
		var out []byte
		if plat != nil {
			out, err = rmtest.RenderCombinedLintJSON(rep, plat)
		} else {
			out, err = rmtest.RenderLintJSON(rep)
		}
		if err != nil {
			fail("lint: %v", err)
		}
		fmt.Printf("%s\n", out)
	} else {
		fmt.Print(rmtest.RenderLint(rep))
		if plat != nil {
			fmt.Printf("\n== platform static analysis (%s) ==\n", *platName)
			fmt.Print(rmtest.RenderPlatformLint(plat))
		}
	}
	if *withRTA {
		an := analyzePipeline(false)
		fmt.Println("\n== response-time analysis from static WCETs (scheme 2) ==")
		fmt.Print(rmtest.RenderRTA(an.Platform.Tasks))
		if an.Bound >= 0 {
			fmt.Printf("end-to-end m->c bound: %v\n", an.Bound)
		} else {
			fmt.Println("pipeline not schedulable")
		}
	}
	if len(rep.Fatal()) > 0 || (plat != nil && len(plat.Fatal()) > 0) {
		os.Exit(1)
	}
}

// analyzePipeline runs the static analysis of the pump pipeline on the
// default scheme 3 or, without its interference threads, scheme 2; a
// failure ends the command.
func analyzePipeline(scheme3 bool) rmtest.SchemeAnalysis {
	s := platform.DefaultScheme3()
	if !scheme3 {
		s.Interference = nil
	}
	an, err := rmtest.AnalyzePipelineStatic(&s.Scheme2, s.Interference)
	if err != nil {
		fail("pipeline analysis: %v", err)
	}
	return an
}

// checkSamples rejects a sample count below one, so the command exits
// before the model check.
func checkSamples(n int) error {
	if n < 1 {
		return fmt.Errorf("-n must be at least 1, got %d", n)
	}
	return nil
}

// checkGen rejects the gen subcommand's numeric flag values no search
// can use: a negative budget or worker count, and an adequacy target
// outside [0, 1], which no suite can meet.
func checkGen(budget, workers int, target float64) error {
	switch {
	case budget < 0:
		return fmt.Errorf("-budget must not be negative, got %d", budget)
	case workers < 0:
		return fmt.Errorf("-workers must not be negative, got %d", workers)
	case !(target >= 0 && target <= 1):
		return fmt.Errorf("-target must be in [0, 1], got %v", target)
	}
	return nil
}

// usageError reports a flag value no run can use, with the flag set's
// usage, and exits with status 2, as the flag package does for a flag it
// cannot parse.
func usageError(fs *flag.FlagSet, err error) {
	fmt.Fprintln(os.Stderr, "rmtest:", err)
	fs.Usage()
	os.Exit(2)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rmtest: "+format+"\n", args...)
	os.Exit(1)
}
