package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// suite runs sets full sets. In each, every workload runs its warm-up and
// then ops timed ops, interleaved round-robin so host drift hits all
// workloads alike; then, unless quick, a traced pass of tracedOps ops per
// workload and one probe replay. It returns each set's results, and an
// error when outputs failed or deterministic counts changed between sets.
func (b *bench) suite(ws []*workload, seed uint64, ops, sets int, quick bool) ([][]*result, error) {
	var all [][]*result
	for set := range sets {
		runs := make([]*run, len(ws))
		for i, w := range ws {
			runs[i] = b.newRun(w, seed)
			if err := runs[i].prepare(warmupOps + ops); err != nil {
				return all, err
			}
		}
		warm := warmupOps
		if quick {
			warm = 0
		}
		if err := roundRobin(runs, warm, false, false); err != nil {
			return all, err
		}
		if err := roundRobin(runs, ops, true, false); err != nil {
			return all, err
		}
		var results []*result
		for _, r := range runs {
			res, err := r.endToEndResult()
			if err != nil {
				return all, err
			}
			results = append(results, res)
		}
		if !quick {
			if err := roundRobin(runs, tracedOps, false, true); err != nil {
				return all, err
			}
			for i, r := range runs {
				var p *replay
				if r.probe != nil {
					var err error
					if p, err = r.replay(1); err != nil {
						return all, err
					}
				}
				sh, err := r.shares()
				if err != nil {
					return all, err
				}
				layer, err := r.layerResult(p, sh)
				if err != nil {
					return all, err
				}
				res := results[i]
				res.Attempted, res.Failed = r.attempted, r.failed
				res.FailFrac = float64(r.failed) / float64(r.attempted)
				res.ProbeValid, res.Absent, res.Counts = layer.ProbeValid, layer.Absent, layer.Counts
				maps.Copy(res.Metrics, layer.Metrics)
			}
		}
		all = append(all, results)
		fmt.Printf("== set %d of %d: seed %d, %d timed ops per workload, %s, %d CPUs ==\n", set+1, sets, seed, ops, runtime.Version(), runtime.NumCPU())
		printSet(results)
	}
	failed := 0
	for _, results := range all {
		for _, res := range results {
			failed += res.Failed
		}
	}
	var err error
	if sets >= 2 {
		err = b.printAgreement(all)
	}
	if failed > 0 && err == nil {
		err = fmt.Errorf("%d ops failed", failed)
	}
	return all, err
}

// roundRobin runs n ops of every workload, one workload after another.
func roundRobin(runs []*run, n int, timed, traced bool) error {
	for range n {
		for _, r := range runs {
			if err := r.op(timed, traced); err != nil {
				return err
			}
		}
	}
	return nil
}

func printSet(results []*result) {
	for _, res := range results {
		resolved := "resolved"
		if res.P75Beyond < minBeyond {
			resolved = "unresolved"
		}
		fmt.Printf("%s: %d ops attempted, fail_frac %.3f, %d timed samples, wall_ms_p75 %.4f ms (%d beyond, %s), host slowdown %.4f",
			res.Workload, res.Attempted, res.FailFrac, res.Samples, res.WallP75, res.P75Beyond, resolved, res.HostSlowdown)
		if res.Counts != nil { // a traced pass ran
			fmt.Printf(", probe valid %v", res.ProbeValid)
		}
		fmt.Println()
		for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
			m := res.Metrics[k]
			fmt.Printf("  %-24s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
	fmt.Println()
}

// printAgreement prints, per workload and end-to-end metric, the median
// and quartiles over the sets and whether every set stays within the
// metric's bound of the first. A metric whose quartile spread exceeds its
// bound is unresolved. Deterministic counts must be identical in every
// set.
func (b *bench) printAgreement(all [][]*result) error {
	bounds, err := b.bounds()
	if err != nil {
		return err
	}
	fmt.Printf("== agreement over %d sets ==\n", len(all))
	fmt.Printf("%-8s %-13s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "status")
	var drift []string
	for i, first := range all[0] {
		for _, name := range slices.Sorted(maps.Keys(bounds)) {
			var xs []float64
			for _, results := range all {
				xs = append(xs, results[i].Metrics[name].Value)
			}
			q1, med, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			status := "agree"
			for _, x := range xs[1:] {
				if x > xs[0]*(1+bounds[name]) {
					status = "worse than bound"
				}
			}
			if spread > bounds[name] {
				status = "unresolved"
			}
			fmt.Printf("%-8s %-13s %12.4f %12.4f %12.4f %8.4f %6.2f  %s\n", first.Workload, name, med, q1, q3, spread, bounds[name], status)
		}
		for _, results := range all[1:] {
			if !maps.Equal(results[i].Counts, first.Counts) {
				drift = append(drift, first.Workload)
				break
			}
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("deterministic counts changed between sets on %s", strings.Join(drift, ", "))
	}
	return nil
}

// bounds reads the end-to-end metrics' regression bounds from
// BENCHMARK.json at the repository root.
func (b *bench) bounds() (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(b.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
