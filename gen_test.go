package rmtest_test

// End-to-end checks of the test-case generation subsystem: the
// generation pipeline against its golden CSV at several worker counts,
// and the acceptance criteria — the
// coverage-directed generator reaches full transition and near-full
// phase adequacy on the GPCA chart within the default budget, the
// falsification search finds a schedule at least as bad as the worst
// hand-written Table I case, and the shrunk counterexample is a minimal
// schedule that still violates.

import (
	"os"
	"strings"
	"testing"

	"rmtest"
)

// genRuns runs the generation pipeline once with the golden seed.
func genRuns(t *testing.T, workers int) []rmtest.GenRun {
	t.Helper()
	runs, err := rmtest.GenerateSuite(rmtest.GenSuiteOptions{Seed: 42, Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return runs
}

// genResult picks one strategy's result off one chart's run.
func genResult(t *testing.T, runs []rmtest.GenRun, chart, strategy string) rmtest.GenResult {
	t.Helper()
	for _, run := range runs {
		if run.Chart != chart {
			continue
		}
		for _, r := range run.Results {
			if r.Strategy == strategy {
				return r
			}
		}
	}
	t.Fatalf("no %s/%s result", chart, strategy)
	return rmtest.GenResult{}
}

// TestGenerateSuiteMatchesGolden pins the generated suites byte for
// byte: the rendered CSV must equal testdata/gen_seed42.csv at every
// worker count. This covers the shrunk counterexample
// too — it is a schedule row of the golden.
func TestGenerateSuiteMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/gen_seed42.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		if got := rmtest.RenderGenCSV(genRuns(t, workers)); got != string(golden) {
			t.Errorf("workers=%d: generation CSV deviates from golden:\n%s", workers, got)
		}
	}
}

// TestGenSuiteCacheDeterminism pins the reuse report of the seed-42
// pipeline, whose only cache is each search's private memo: of its 60
// candidate evaluations, 15 were answered from an earlier batch of the
// same search and 1 repeated a candidate of its own batch, at any worker
// count.
func TestGenSuiteCacheDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		lines := map[string]bool{}
		for _, line := range strings.Split(rmtest.RenderGenReuse(genRuns(t, workers)), "\n") {
			lines[strings.Join(strings.Fields(line), " ")] = true
		}
		for _, want := range []string{"lookups 60", "hits 15", "deduped 1", "misses 44"} {
			if !lines[want] {
				t.Errorf("workers=%d: reuse report has no line %q", workers, want)
			}
		}
	}
}

// TestGenCoverageAcceptance: on the GPCA chart the coverage-directed
// generator must reach 100%% transition coverage and at least 90%%
// phase-bin coverage within the default budget.
func TestGenCoverageAcceptance(t *testing.T) {
	cov := genResult(t, genRuns(t, 0), "gpca", "coverage")
	if cov.Coverage == nil {
		t.Fatal("coverage strategy returned no adequacy report")
	}
	if r := cov.Coverage.Transitions.Ratio(); r < 1 {
		t.Errorf("transition coverage %.2f, want 1.00 (uncovered %v)",
			r, cov.Coverage.Transitions.Uncovered)
	}
	if r := cov.Coverage.Phase.Ratio(); r < 0.9 {
		t.Errorf("phase coverage %.2f, want >= 0.90", r)
	}
	if cov.Evals > 32 {
		t.Errorf("spent %d evaluations, default budget is 32", cov.Evals)
	}
	if len(cov.Unreachable) > 0 {
		t.Errorf("planner gave up on transitions %v", cov.Unreachable)
	}
}

// TestGenFalsificationAcceptance: the falsification search on scheme3
// must find a violating GPCA schedule whose worst response is at least
// as bad as the worst hand-written Table I sample on the same scheme.
func TestGenFalsificationAcceptance(t *testing.T) {
	fal := genResult(t, genRuns(t, 0), "gpca", "falsify")
	if !fal.Violated {
		t.Fatal("falsification found no violating schedule on scheme3")
	}

	reports, err := rmtest.TableIExperiment(rmtest.TableIOptions{Samples: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var handWorst rmtest.Time
	for _, rep := range reports {
		if rep.R.Scheme != "scheme3" {
			continue
		}
		for _, s := range rep.R.Samples {
			d := s.Delay
			if !s.CObserved {
				d = rmtest.PumpREQ1().EffectiveTimeout()
			}
			if d > handWorst {
				handWorst = d
			}
		}
	}
	if handWorst == 0 {
		t.Fatal("no Scheme3 report in the Table I experiment")
	}
	if fal.WorstDelay < handWorst {
		t.Errorf("falsified worst response %v below hand-written Table I worst %v",
			fal.WorstDelay, handWorst)
	}
}

// TestGenShrinkAcceptance: the shrunk counterexample must be no larger
// than the falsifier's schedule and must still violate when re-run.
func TestGenShrinkAcceptance(t *testing.T) {
	runs := genRuns(t, 0)
	fal := genResult(t, runs, "gpca", "falsify")
	shr := genResult(t, runs, "gpca", "shrink")
	if shr.Shrunk == nil {
		t.Fatal("shrink strategy reported no minimal schedule")
	}
	if got, max := len(shr.Shrunk.Stimuli), len(fal.Schedule.Stimuli); got > max {
		t.Errorf("shrunk schedule has %d stimuli, input had %d", got, max)
	}
	if !shr.Violated {
		t.Error("re-running the shrunk schedule no longer violates")
	}
}

// TestGenerateSuiteProgressCountsSimulatedRuns: Progress reports every
// simulated evaluation of the seed-42 suite once, its 60 lookups less 15
// memo hits and 1 dedup, at any worker count. The counter is unguarded:
// with four workers the suite's searches run at once, and the race
// detector fails the test unless the suite serialises their calls.
func TestGenerateSuiteProgressCountsSimulatedRuns(t *testing.T) {
	for _, workers := range []int{1, 4} {
		calls := 0
		_, err := rmtest.GenerateSuite(rmtest.GenSuiteOptions{
			Seed: 42, Workers: workers,
			Progress: func(rmtest.CampaignProgress) { calls++ },
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls != 44 {
			t.Errorf("workers=%d: %d progress calls, want one per simulated evaluation (44)", workers, calls)
		}
	}
}
