// Command tablei regenerates Table I of the paper: R-testing delays and
// M-testing delay segments for the bolus-request scenario of REQ1 on the
// three implementation schemes.
//
// Usage:
//
//	tablei [-n samples] [-seed n] [-force-m] [-csv] [-transitions] [-workers n] [-progress] [-faults] [-pprof prefix]
//	tablei -gen [-gen-budget n] [-gen-target ratio] [-seed n] [-workers n] [-csv] [-progress] [-pprof prefix]
//
// -pprof PREFIX writes PREFIX.cpu.pprof and PREFIX.heap.pprof profiles
// of the run, matching the rmtest command's flag. -progress reports
// every executed simulation run on stderr.
//
// With -faults the command runs the fault-injection sweep instead: the
// Table I scenario once per catalogue fault plan on scheme2, printing
// the fault-attribution table (or CSV with -csv). -workers, -seed, -n
// and -progress compose with it; results are byte-identical for any
// worker count.
//
// With -gen the command runs the test-case generation pipeline instead
// of replaying the hand-written Table I suite: the coverage-directed
// generator on scheme2, the falsification search on scheme3, and
// delta-debug shrinking of any violating schedule, on both the GPCA and
// rail-crossing charts. -gen-budget bounds each strategy's evaluations
// and -gen-target sets the phase-bin adequacy threshold; suites are
// byte-identical for any -workers value. Each search memoises its own
// candidate evaluations, and the evaluations it answered from the memo
// are reported on stderr. With more than one worker the searches run at
// once, so their -progress lines interleave.
package main

import (
	"flag"
	"fmt"
	"os"

	"rmtest"
	"rmtest/internal/profiles"
)

func main() {
	n := flag.Int("n", 10, "test samples per scheme")
	seed := flag.Uint64("seed", 42, "stimulus-phase jitter seed")
	forceM := flag.Bool("force-m", true, "run M-testing even for passing schemes")
	csv := flag.Bool("csv", false, "emit CSV instead of the formatted table")
	jsonOut := flag.Bool("json", false, "emit JSON instead of the formatted table")
	trans := flag.Bool("transitions", false, "also print per-transition delays")
	matrix := flag.Bool("matrix", false, "also print the requirement x scheme conformance matrix")
	workers := flag.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS); results are identical for any value")
	progress := flag.Bool("progress", false, "report campaign progress and throughput on stderr")
	faultsFlag := flag.Bool("faults", false, "run the fault-injection sweep and print the fault-attribution table")
	genFlag := flag.Bool("gen", false, "run the test-case generation pipeline (coverage, falsification, shrinking) instead of the hand-written suite")
	genBudget := flag.Int("gen-budget", 0, "evaluation budget per generation strategy (0 = strategy defaults)")
	genTarget := flag.Float64("gen-target", 0, "phase-bin adequacy target for the coverage-directed generator (0 = default 0.9)")
	pprofPrefix := flag.String("pprof", "", "write PREFIX.cpu.pprof and PREFIX.heap.pprof profiles of the run")
	flag.Parse()
	if err := checkFlags(*n, *workers, *genBudget, *genTarget); err != nil {
		fmt.Fprintln(os.Stderr, "tablei:", err)
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := profiles.Start(*pprofPrefix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablei:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "tablei:", err)
			os.Exit(1)
		}
	}()

	if *genFlag {
		gopt := rmtest.GenSuiteOptions{
			Budget: *genBudget, Seed: *seed, Workers: *workers,
			TargetPhase: *genTarget,
		}
		if *progress {
			gopt.Progress = func(p rmtest.CampaignProgress) {
				fmt.Fprintln(os.Stderr, "tablei:", p)
			}
		}
		runs, err := rmtest.GenerateSuite(gopt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tablei:", err)
			os.Exit(1)
		}
		fmt.Fprint(os.Stderr, rmtest.RenderGenReuse(runs))
		if *csv {
			fmt.Print(rmtest.RenderGenCSV(runs))
			return
		}
		fmt.Print(rmtest.RenderGenSummary(runs))
		return
	}

	if *faultsFlag {
		fopt := rmtest.FaultSweepOptions{Samples: *n, Seed: *seed, Workers: *workers}
		if *progress {
			fopt.Progress = func(p rmtest.CampaignProgress) {
				fmt.Fprintln(os.Stderr, "tablei:", p)
			}
		}
		res, err := rmtest.FaultSweep(fopt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tablei:", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(rmtest.RenderFaultCSV(res.Attributions))
			return
		}
		fmt.Print(rmtest.RenderFaultTable(res.Attributions))
		return
	}

	opt := rmtest.TableIOptions{
		Samples: *n, Seed: *seed, ForceM: *forceM, Workers: *workers,
	}
	if *progress {
		opt.Progress = func(p rmtest.CampaignProgress) {
			fmt.Fprintln(os.Stderr, "tablei:", p)
		}
	}
	reports, err := rmtest.TableIExperiment(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablei:", err)
		os.Exit(1)
	}
	if *csv {
		fmt.Print(rmtest.RenderCSV(reports))
		return
	}
	if *jsonOut {
		data, err := rmtest.RenderJSON(reports)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tablei:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Print(rmtest.RenderTableI(reports))
	if *matrix {
		cells, err := rmtest.RequirementsMatrix(*n, *seed, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tablei:", err)
			os.Exit(1)
		}
		fmt.Println("\nRequirement x scheme conformance (pass/fail/MAX):")
		fmt.Printf("%-8s %-18s %-18s %-18s\n", "", "scheme1", "scheme2", "scheme3")
		byReq := map[string][]rmtest.MatrixCell{}
		var order []string
		for _, c := range cells {
			if _, seen := byReq[c.Requirement]; !seen {
				order = append(order, c.Requirement)
			}
			byReq[c.Requirement] = append(byReq[c.Requirement], c)
		}
		for _, req := range order {
			fmt.Printf("%-8s", req)
			for _, c := range byReq[req] {
				fmt.Printf(" %-18s", fmt.Sprintf("%d/%d/%d", c.Pass, c.Fail, c.Max))
			}
			fmt.Println()
		}
	}
	if *trans {
		for _, rep := range reports {
			if rep.M != nil {
				fmt.Println()
				fmt.Print(rmtest.RenderTransitions(*rep.M, false))
			}
		}
	}
	for _, rep := range reports {
		if len(rep.Diagnosis) > 0 {
			fmt.Printf("\nDiagnosis (%s):\n%s", rep.R.Scheme, rmtest.RenderFindings(rep.Diagnosis))
		}
	}
}

// checkFlags rejects the numeric flag values no run can use, so the
// command exits before any work: fewer than one sample, a negative
// worker count or budget, and an adequacy target outside [0, 1].
func checkFlags(n, workers, genBudget int, genTarget float64) error {
	switch {
	case n < 1:
		return fmt.Errorf("-n must be at least 1, got %d", n)
	case workers < 0:
		return fmt.Errorf("-workers must not be negative, got %d", workers)
	case genBudget < 0:
		return fmt.Errorf("-gen-budget must not be negative, got %d", genBudget)
	case !(genTarget >= 0 && genTarget <= 1):
		return fmt.Errorf("-gen-target must be in [0, 1], got %v", genTarget)
	}
	return nil
}
