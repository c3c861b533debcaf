package rmtest_test

// End-to-end determinism checks of the evaluation cache: memoisation is
// a pure host-time optimisation, so every rendered artifact must be
// byte-identical with the cache on or off, at every worker count,
// whether the cache is cold, warm from a previous experiment, or so small that it thrashes
// (deterministic FIFO eviction keeps even that seed-pure).

import (
	"os"
	"testing"

	"rmtest"
)

// TestGenSuiteCacheDeterminism pins the cached generation pipeline to
// the same golden as the uncached one. The cache is reused across the
// worker sweep on purpose: later runs hit entries written by
// earlier ones, which is exactly the cross-experiment sharing the CLI
// performs, and the suites must not care.
func TestGenSuiteCacheDeterminism(t *testing.T) {
	golden, err := os.ReadFile("testdata/gen_seed42.csv")
	if err != nil {
		t.Fatal(err)
	}
	cache := rmtest.NewEvalCache(0)
	for _, workers := range []int{1, 2, 4} {
		runs, err := rmtest.GenerateSuite(rmtest.GenSuiteOptions{
			Seed: 42, Workers: workers, Cache: cache,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rmtest.RenderGenCSV(runs); got != string(golden) {
			t.Errorf("workers=%d: cached generation CSV deviates from golden:\n%s", workers, got)
		}
	}
	s := cache.Stats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("cache never exercised both paths: %v", s)
	}
	// The three sweep iterations repeat the same work; everything after the
	// first pass should reuse. If the hit rate collapses, fingerprinting
	// has started keying on something unstable (worker count, host state).
	if s.HitRate() < 0.5 {
		t.Errorf("hit rate %.2f suspiciously low for three identical pipelines: %v", s.HitRate(), s)
	}
}

// TestFaultSweepCacheDeterminism pins the cached fault sweep to the
// fault-attribution golden, again sharing one cache across the sweep.
func TestFaultSweepCacheDeterminism(t *testing.T) {
	golden, err := os.ReadFile("testdata/faults_seed42.csv")
	if err != nil {
		t.Fatal(err)
	}
	cache := rmtest.NewEvalCache(0)
	for _, workers := range []int{1, 2, 4} {
		res, err := rmtest.FaultSweep(rmtest.FaultSweepOptions{
			Samples: 10, Seed: 42, Workers: workers, Cache: cache,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rmtest.RenderFaultCSV(res.Attributions); got != string(golden) {
			t.Errorf("workers=%d: cached fault CSV deviates from golden:\n%s", workers, got)
		}
	}
	if s := cache.Stats(); s.Hits == 0 {
		t.Errorf("repeated sweeps never hit the cache: %v", s)
	}
}

// TestCacheEvictionStaysSeedPure runs the generation pipeline through a
// cache far smaller than its working set: constant eviction changes how
// much work is redone, never what any run computes, so the golden must
// still match byte for byte.
func TestCacheEvictionStaysSeedPure(t *testing.T) {
	golden, err := os.ReadFile("testdata/gen_seed42.csv")
	if err != nil {
		t.Fatal(err)
	}
	cache := rmtest.NewEvalCache(4)
	for _, workers := range []int{1, 4} {
		runs, err := rmtest.GenerateSuite(rmtest.GenSuiteOptions{
			Seed: 42, Workers: workers, Cache: cache,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rmtest.RenderGenCSV(runs); got != string(golden) {
			t.Errorf("workers=%d: thrashing cache changed the generation CSV:\n%s", workers, got)
		}
	}
	s := cache.Stats()
	if s.Evictions == 0 {
		t.Fatalf("capacity-4 cache never evicted; the test exercises nothing: %v", s)
	}
	if s.Size > 4 {
		t.Errorf("cache exceeded its capacity: %v", s)
	}
}
