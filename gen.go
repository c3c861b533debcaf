package rmtest

import (
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
	// Workers bounds the campaign worker pool; 0 means GOMAXPROCS. Any
	// value produces byte-identical suites.
	Workers int
	// TargetPhase is the phase-bin coverage ratio the coverage-directed
	// generator stops at (default 0.9); it always requires every
	// transition covered.
	TargetPhase float64
	// Progress, when set, receives a campaign snapshot per executed
	// evaluation; evaluations a search answers from its memo are not
	// counted.
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
func GenerateSuite(opt GenSuiteOptions) ([]report.GenRun, error) {
	seeds := sim.NewRand(opt.Seed)
	var runs []report.GenRun
	for _, c := range genCases() {
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
		run := report.GenRun{Chart: c.chart}

		// Coverage-directed adequacy on the nominal pipeline.
		target.Scheme = func() platform.Scheme { return platform.DefaultScheme2() }
		cov, err := tcgen.CoverageDirected().Generate(target, opt.tcgen(seeds.Uint64()))
		if err != nil {
			return nil, err
		}
		run.Results = append(run.Results, cov)

		// Falsification against the interference-loaded scheme.
		target.Scheme = func() platform.Scheme { return platform.DefaultScheme3() }
		fal, err := tcgen.Falsification().Generate(target, opt.tcgen(seeds.Uint64()))
		if err != nil {
			return nil, err
		}
		run.Results = append(run.Results, fal)

		// Shrink the violating schedule to a minimal counterexample.
		shrinkSeed := seeds.Uint64() // drawn unconditionally: the chain's
		// position must not depend on whether falsification violated
		if fal.Violated {
			shr, err := tcgen.Shrinker(fal.Schedule).Generate(target, opt.tcgen(shrinkSeed))
			if err != nil {
				return nil, err
			}
			run.Results = append(run.Results, shr)
		}
		runs = append(runs, run)
	}
	return runs, nil
}
