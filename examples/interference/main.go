// Interference studies how scheduling interference shapes the delay
// segments — the A2 design-space ablation. It sweeps (a) the CODE(M) task
// period on the scheme-2 pipeline and (b) the high-priority interference
// burst on scheme 3, reporting mean segments and REQ1 pass rates for
// each point. This is the kind of exploration the paper's measured
// delay-segments are meant to enable.
package main

import (
	"fmt"
	"log"
	"time"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
)

func main() {
	fmt.Println("A2a: CODE(M) period sweep on the scheme-2 pipeline (REQ1, 8 samples each)")
	periods := []time.Duration{10, 20, 40, 60, 80}
	for i := range periods {
		periods[i] *= time.Millisecond
	}
	points, err := rmtest.AblationPeriodSweep(periods, 8, 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %-12s %-12s %-12s %-12s %s\n", "code period", "mean input", "mean codeM", "mean output", "mean total", "pass")
	for _, p := range points {
		fmt.Printf("%-12v %-12v %-12v %-12v %-12v %.0f%%\n",
			p.CodePeriod, p.MeanInput, p.MeanCode, p.MeanOutput, p.MeanTotal, 100*p.PassRate)
	}

	fmt.Println("\nA2b: interference burst sweep on scheme 3 (REQ1, 8 samples each)")
	req := gpca.REQ1()
	gen := core.Generator{
		N: 8, Start: 50 * time.Millisecond, Spacing: 4500 * time.Millisecond,
		Strategy: core.JitteredSpacing, Jitter: 200 * time.Millisecond, Seed: 7,
	}
	tc, err := gen.Generate(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %-6s %-6s %-6s\n", "burst", "pass", "fail", "MAX")
	// Each burst point is an independent deterministic simulation: shard
	// them across the campaign engine and print in sweep order.
	bursts := []time.Duration{0, 20, 40, 60, 80, 100}
	type burstPoint struct {
		burst           time.Duration
		pass, fail, max int
	}
	rows, err := campaign.Values(campaign.Map(campaign.Config{Seed: 7}, len(bursts),
		func(run campaign.Run) (burstPoint, error) {
			burstDur := bursts[run.Index] * time.Millisecond
			factory := func(level rmtest.Instrument) (*rmtest.System, error) {
				s := platform.DefaultScheme3()
				s.Interference[0].Burst = burstDur
				return platform.NewSystem(gpca.PlatformConfig(), s, level)
			}
			runner, err := rmtest.NewRunner(factory, req)
			if err != nil {
				return burstPoint{}, err
			}
			rep, err := runner.RunRM(tc, false)
			if err != nil {
				return burstPoint{}, err
			}
			row := burstPoint{burst: burstDur}
			for _, s := range rep.R.Samples {
				switch s.Verdict {
				case core.Pass:
					row.pass++
				case core.Fail:
					row.fail++
				case core.Max:
					row.max++
				}
			}
			return row, nil
		}))
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range rows {
		fmt.Printf("%-12v %-6d %-6d %-6d\n", row.burst, row.pass, row.fail, row.max)
	}

	fmt.Println("\nA1: diagnostic information — baseline black-box monitor vs layered R-M")
	info, err := rmtest.AblationBaselineVsRM(8, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d violations, %d facts (delay + verdict per violation)\n",
		info.Violations, 2*info.Violations)
	fmt.Printf("R-M flow: %d violations, %d facts (segments + transitions + dominant cause)\n",
		info.Violations, info.RMFacts)
	fmt.Print(rmtest.RenderFindings(info.Findings))
}
