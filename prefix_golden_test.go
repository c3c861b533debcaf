package rmtest_test

// Byte-identity checks of the prefix-sharing snapshot/resume engine at
// the facade level: with PrefixShare set, the generation pipeline and
// the fault-attribution sweep must reproduce their golden CSVs exactly,
// at every worker count, with and without the evaluation cache.

import (
	"os"
	"testing"

	"rmtest"
)

// TestGenerateSuiteGoldenPrefixShare pins the prefix-shared generation
// pipeline byte for byte against testdata/gen_seed42.csv: workers 1/2/4
// cached and uncached. The pipeline's R-level
// batches (falsification mutants, ddmin complements) run on the
// interference-saturated scheme 3, which is never quiescent, so the
// engine degrades to plain evaluation inside the walk — this test pins
// byte-identity under that worst case; sharing itself is proved on
// scheme 2 by the tcgen unit tests and benchmarks.
func TestGenerateSuiteGoldenPrefixShare(t *testing.T) {
	golden, err := os.ReadFile("testdata/gen_seed42.csv")
	if err != nil {
		t.Fatal(err)
	}
	sink := &rmtest.PrefixStatsSink{}
	run := func(workers int, cached bool) {
		t.Helper()
		opt := rmtest.GenSuiteOptions{
			Seed: 42, Workers: workers,
			PrefixShare: true, PrefixStats: sink,
		}
		if cached {
			opt.Cache = rmtest.NewEvalCache(0)
		}
		runs, err := rmtest.GenerateSuite(opt)
		if err != nil {
			t.Fatalf("workers=%d cached=%v: %v", workers, cached, err)
		}
		if got := rmtest.RenderGenCSV(runs); got != string(golden) {
			t.Errorf("workers=%d cached=%v: prefix-shared generation CSV deviates from golden:\n%s",
				workers, cached, got)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		for _, cached := range []bool{false, true} {
			run(workers, cached)
		}
	}

	st := sink.Stats()
	if st.Runs == 0 {
		t.Errorf("prefix engine saw no runs: %+v", st)
	}
	if st.SharedRuns+st.PlainRuns != st.Runs {
		t.Errorf("prefix run accounting inconsistent: %+v", st)
	}
	t.Logf("generation prefix stats: %d runs (%d shared, %d plain), %d snapshots, %d restores, %.1f%% reuse",
		st.Runs, st.SharedRuns, st.PlainRuns, st.Snapshots, st.Restores, 100*st.ReuseRatio())
}

// TestFaultSweepGoldenPrefixShare pins the prefix-shared fault sweep
// byte for byte against testdata/faults_seed42.csv. The catalogue's
// windows mostly open at time zero, so the plans diverge immediately
// and the engine shares only system construction — the check is that
// sharing never changes a byte, not that it saves much here.
func TestFaultSweepGoldenPrefixShare(t *testing.T) {
	golden, err := os.ReadFile("testdata/faults_seed42.csv")
	if err != nil {
		t.Fatal(err)
	}
	sink := &rmtest.PrefixStatsSink{}
	run := func(workers int, cached bool) {
		t.Helper()
		opt := rmtest.FaultSweepOptions{
			Samples: 10, Seed: 42, Workers: workers,
			PrefixShare: true, PrefixStats: sink,
		}
		if cached {
			opt.Cache = rmtest.NewEvalCache(0)
		}
		res, err := rmtest.FaultSweep(opt)
		if err != nil {
			t.Fatalf("workers=%d cached=%v: %v", workers, cached, err)
		}
		if got := rmtest.RenderFaultCSV(res.Attributions); got != string(golden) {
			t.Errorf("workers=%d cached=%v: prefix-shared fault CSV deviates from golden:\n%s",
				workers, cached, got)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		for _, cached := range []bool{false, true} {
			run(workers, cached)
		}
	}

	if st := sink.Stats(); st.Runs == 0 {
		t.Errorf("prefix engine saw no runs: %+v", st)
	} else {
		t.Logf("fault-sweep prefix stats: %d runs (%d shared, %d plain), %d snapshots, %d restores, %.1f%% reuse",
			st.Runs, st.SharedRuns, st.PlainRuns, st.Snapshots, st.Restores, 100*st.ReuseRatio())
	}
}
