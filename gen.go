package rmtest

import (
	"sync"
	"time"

	"rmtest/internal/campaign"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/railcrossing"
	"rmtest/internal/report"
	"rmtest/internal/sim"
	"rmtest/internal/tcgen"
)

// GenSuiteOptions parameterises the test-case generation experiment.
type GenSuiteOptions struct {
	// Budget bounds each strategy's candidate evaluations; 0 means the
	// strategy defaults (32 coverage / 48 falsification / 64 shrink).
	Budget int
	// Seed drives every random choice through a splitmix64 chain; the
	// same seed reproduces the same suites byte for byte.
	Seed uint64
	// Workers bounds the campaign worker pools; 0 means GOMAXPROCS. Any
	// value produces byte-identical suites. The suite's four search
	// chains run on one campaign of Workers workers, so at most
	// min(Workers, 4) run at once, and each search evaluates at most
	// Workers candidates at a time on its own campaigns. Workers=1 runs
	// everything inline, one search after another.
	Workers int
	// TargetPhase is the phase-bin coverage ratio the coverage-directed
	// generator stops at (default 0.9); it always requires every
	// transition covered.
	TargetPhase float64
	// Progress, when set, receives a campaign snapshot per executed
	// evaluation; evaluations a search answers from its memo are not
	// counted. A snapshot's counts cover one candidate batch of one
	// search. Calls are serialised, but with Workers > 1 the snapshots
	// of searches that run at once interleave.
	Progress func(campaign.Progress)
}

func (o GenSuiteOptions) tcgen(seed uint64) tcgen.Options {
	return tcgen.Options{
		Budget:      o.Budget,
		Seed:        seed,
		Workers:     o.Workers,
		TargetPhase: o.TargetPhase,
		Progress:    o.Progress,
	}
}

// genCase describes one chart's generation setup: the precompiled
// system, the requirement under test, and the schedule shaping
// parameters the chart's scenario needs.
type genCase struct {
	chart  string
	pre    func() (*platform.Prebuilt, error)
	req    Requirement
	settle Time
	aux    []tcgen.Stimulus
}

func genCases() []genCase {
	return []genCase{
		{
			chart: "gpca",
			pre:   gpca.Precompile,
			req:   gpca.REQ1(),
			// One bolus cycle: the 4 s infusion plus response margin.
			settle: 4500 * time.Millisecond,
		},
		{
			chart: "crossing",
			pre: func() (*platform.Prebuilt, error) {
				return platform.Precompile(railcrossing.PlatformConfig())
			},
			req: railcrossing.GateRequirement(),
			// One full gate cycle: 3 s lowering, 3 s raising, margins.
			settle: 7500 * time.Millisecond,
			// Each train needs the clear circuit to release the gate,
			// else the chart parks in Closed and later samples starve.
			aux: []tcgen.Stimulus{{
				Signal: railcrossing.SigClear, Value: 1, Rest: 0,
				Width: 300 * time.Millisecond, At: 3500 * time.Millisecond,
			}},
		},
	}
}

// GenerateSuite runs the three-strategy generation pipeline on the GPCA
// pump and rail-crossing charts: the coverage-directed generator
// against the nominal scheme-2 pipeline, the falsification search
// against the interference-loaded scheme 3, and — when falsification
// violates — delta-debug shrinking of the violating schedule to a
// minimal counterexample. One report.GenRun per chart, in chart order;
// the output is byte-identical at any worker count.
//
// Only shrinking depends on another search, so the suite runs as four
// independent chains on one campaign: each chart's coverage search, and
// each chart's falsification search followed by its shrinking. Every
// search keeps its own memo and runs its own candidate campaigns. All
// seeds are drawn before any chain runs, and with Workers=1 the chains
// run inline in chart order, coverage first, which is the sequential
// reference. A chain that fails or panics fails the suite; the error
// returned is the first failed chain's, in that order.
func GenerateSuite(opt GenSuiteOptions) ([]report.GenRun, error) {
	if progress := opt.Progress; progress != nil {
		// Each search's campaigns serialise their own snapshots; chains
		// running at once share this lock.
		var mu sync.Mutex
		opt.Progress = func(p campaign.Progress) {
			mu.Lock()
			defer mu.Unlock()
			progress(p)
		}
	}
	cases := genCases()
	seeds := sim.NewRand(opt.Seed)
	var chains []func() ([]tcgen.Result, error)
	for _, c := range cases {
		pb, err := c.pre()
		if err != nil {
			return nil, err
		}
		target := tcgen.Target{
			Prebuilt:    pb,
			Req:         c.req,
			PhasePeriod: platform.DefaultScheme2().CodePeriod,
			Bins:        8,
			Settle:      c.settle,
			SampleAux:   c.aux,
		}
		nominal, loaded := target, target
		nominal.Scheme = func() platform.Scheme { return platform.DefaultScheme2() }
		loaded.Scheme = func() platform.Scheme { return platform.DefaultScheme3() }
		// The shrink seed is drawn whether or not falsification violates:
		// the chain's position must not depend on a search's outcome.
		covSeed, falSeed, shrinkSeed := seeds.Uint64(), seeds.Uint64(), seeds.Uint64()
		chains = append(chains,
			// Coverage-directed adequacy on the nominal pipeline.
			func() ([]tcgen.Result, error) {
				cov, err := tcgen.CoverageDirected().Generate(nominal, opt.tcgen(covSeed))
				return []tcgen.Result{cov}, err
			},
			// Falsification against the interference-loaded scheme, then
			// shrinking of the violating schedule to a minimal
			// counterexample.
			func() ([]tcgen.Result, error) {
				fal, err := tcgen.Falsification().Generate(loaded, opt.tcgen(falSeed))
				if err != nil || !fal.Violated {
					return []tcgen.Result{fal}, err
				}
				shr, err := tcgen.Shrinker(fal.Schedule).Generate(loaded, opt.tcgen(shrinkSeed))
				return []tcgen.Result{fal, shr}, err
			})
	}
	results, err := campaign.Values(campaign.Map(campaign.Config{Workers: opt.Workers}, len(chains),
		func(r campaign.Run) ([]tcgen.Result, error) { return chains[r.Index]() }))
	if err != nil {
		return nil, err
	}
	runs := make([]report.GenRun, len(cases))
	for i, c := range cases {
		runs[i] = report.GenRun{Chart: c.chart, Results: append(results[2*i], results[2*i+1]...)}
	}
	return runs, nil
}
