// Command rmbench is the repository's benchmark. It times the shipped
// CLIs (tablei and rmtest) on four workloads, each op one fresh process
// with GOMAXPROCS=2 in a closed loop with one client; checks every op's
// stdout byte for byte against a reference; and attributes the CPU time
// of a separate traced pass to the module's layers, next to an in-process
// replay that times each layer boundary and counts each layer's work.
//
// Run it through bench/run.sh from the repository root, which builds
// rmbench and the CLIs first:
//
//	bash bench/run.sh                        # one set: 40 ops per workload, interleaved, then a traced pass
//	bash bench/run.sh -sets 2 -out r.json    # two sets, with medians, quartiles and agreement per metric
//	bash bench/run.sh -quick                 # smoke test: 3 ops per workload, no trace
//	bash bench/run.sh -workload gen -seed 7 -seconds 20 -trace 0
//
// The last form measures one workload for a fixed time and prints one
// JSON line: end-to-end metrics with -trace 0, per-layer metrics with
// -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// bench locates the checkout, the built CLIs, the profile directory and
// rmbench's own executable, which doubles as the CLIs' launcher.
type bench struct {
	root, binDir, profDir, self string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	warmupOps      = 2
	tracedOps      = 5  // per workload in a set's traced pass
	setupRepsPerOp = 10 // set-up repetitions after each untraced timed op
	probeReps      = 3  // in-process replays per timed traced run
	setOps         = 40 // timed ops per workload in a set
	quickOps       = 3
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == launchFlag {
		launch(os.Args[2:])
		return
	}
	name := flag.String("workload", "", "run only this workload: tablei, faults, gen or flow")
	seed := flag.Uint64("seed", 42, "first op seed; a run's ops cycle through this seed and the next seven")
	seconds := flag.Int("seconds", 0, "measure one workload for this many seconds and print one JSON line (0: count ops instead)")
	trace := flag.Int("trace", 0, "with -seconds: 1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	sets := flag.Int("sets", 1, "full sets to run; with 2 or more, per-metric medians, quartiles and agreement are printed")
	quick := flag.Bool("quick", false, "smoke test: 3 ops per workload, no warm-up and no traced pass")
	out := flag.String("out", "", "write every set's results as JSON to this file")
	flag.Parse()

	// run.sh starts rmbench in the repository root and builds into
	// .bench_build there.
	b := &bench{root: ".", binDir: filepath.Join(".bench_build", "bin"), profDir: filepath.Join(".bench_build", "prof")}
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	b.self = self
	if err := os.MkdirAll(b.profDir, 0o755); err != nil {
		fail(err)
	}
	ws := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fail(err)
		}
		ws = []*workload{w}
	}
	if *seconds > 0 {
		if len(ws) != 1 || (*trace != 0 && *trace != 1) {
			fail(fmt.Errorf("-seconds needs -workload and -trace 0 or 1"))
		}
		line, err := b.timedRun(ws[0], *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fail(err)
		}
		fmt.Println(line)
		return
	}
	ops := setOps
	if *quick {
		ops = quickOps
	}
	all, err := b.suite(ws, *seed, ops, *sets, *quick)
	if *out != "" && len(all) > 0 {
		doc := map[string]any{
			"seed": *seed, "ops": ops, "go": runtime.Version(), "nproc": runtime.NumCPU(), "sets": all,
		}
		data, jerr := json.MarshalIndent(doc, "", "  ")
		if jerr == nil {
			jerr = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if jerr != nil {
			fail(jerr)
		}
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rmbench:", err)
	os.Exit(1)
}

// timedRun measures one workload for d and returns the result line. The
// ops cycle the run's seeds; with trace, every other op writes a CPU
// profile and the in-process probe replays the first seed.
func (b *bench) timedRun(w *workload, seed uint64, d time.Duration, trace bool) (string, error) {
	r := b.newRun(w, seed)
	if err := r.prepare(seedsPerRun); err != nil {
		return "", err
	}
	for range warmupOps {
		if err := r.op(false, false); err != nil {
			return "", err
		}
	}
	var p *replay
	if trace && w.probe != nil {
		var err error
		if p, err = r.replay(probeReps); err != nil {
			return "", err
		}
	}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := r.op(true, trace && i%2 == 0); err != nil {
			return "", err
		}
	}
	var res *result
	var err error
	if trace {
		var sh cpuShares
		if sh, err = r.shares(); err == nil {
			res, err = r.layerResult(p, sh)
		}
	} else {
		res, err = r.endToEndResult()
	}
	if err != nil {
		return "", err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, res.Metrics})
	return string(line), err
}

// result is one workload's outcome in one set.
type result struct {
	Workload  string  `json:"workload"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailFrac  float64 `json:"fail_frac"`
	// Samples is the number of timed untraced ops. WallP75 is their
	// calibrated 75th-percentile wall time and P75Beyond how many lie
	// beyond it. A p75 is resolved only with minBeyond samples beyond it,
	// which a set's 40 ops give but a 20 s run of gen does not, so it is
	// reported here and not as a bounded metric.
	Samples   int     `json:"samples"`
	WallP75   float64 `json:"wall_ms_p75"`
	P75Beyond int     `json:"p75_beyond"`
	// HostSlowdown is the run's median calibration time over the
	// reference host's; Raw holds the timings before dividing by it.
	HostSlowdown float64           `json:"host_slowdown,omitempty"`
	Raw          map[string]metric `json:"raw,omitempty"`
	ProbeValid   bool              `json:"probe_valid"`
	Absent       []string          `json:"absent,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	// Counts are the deterministic per-layer counts, which must repeat
	// exactly from set to set.
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// endToEndResult summarises the untraced timed ops and the set-up
// measurement. Timings are divided by the host slowdown measured beside
// them, so they read as on the reference host; the raw values are kept
// in the result and printed to stderr.
func (r *run) endToEndResult() (*result, error) {
	if len(r.plain) == 0 {
		return nil, fmt.Errorf("%s: no timed op succeeded", r.name)
	}
	var wall, cpu, rss []float64
	for _, o := range r.plain {
		wall = append(wall, o.wallMS)
		cpu = append(cpu, o.cpuMS)
		rss = append(rss, o.rssMB)
	}
	raw := map[string]metric{
		"setup_s":     {quantile(r.setupTimes, 0.5), "s"},
		"wall_ms_p50": {quantile(wall, 0.5), "ms"},
		"cpu_ms_p50":  {quantile(cpu, 0.5), "ms"},
	}
	slow := slowdown(r.calib)
	res := &result{
		Workload: r.name, Attempted: r.attempted, Failed: r.failed,
		FailFrac: float64(r.failed) / float64(r.attempted),
		Samples:  len(wall), WallP75: quantile(wall, 0.75) / slow, P75Beyond: beyond(len(wall), 0.75),
		HostSlowdown: slow, Raw: raw,
		Metrics: map[string]metric{"peak_rss_mb": {quantile(rss, 0.5), "MB"}},
	}
	for name, m := range raw {
		res.Metrics[name] = metric{m.Value / slow, m.Unit}
	}
	fmt.Fprintf(os.Stderr, "rmbench: %s: host slowdown %.4f; raw wall_ms_p50 %.4f cpu_ms_p50 %.4f setup_s %.6f\n",
		r.name, slow, raw["wall_ms_p50"].Value, raw["cpu_ms_p50"].Value, raw["setup_s"].Value)
	return res, nil
}

// Per-layer metrics the in-process probe supplies, with their units.
var probeMetrics = []struct{ name, unit string }{
	{cntEvents, "count"}, {cntSwitches, "count"}, {cntPreemptions, "count"},
	{cntSteps, "count"}, {cntTransitions, "count"}, {cntRecords, "count"},
	{cntStates, "count"}, {spanSetup, "ms"}, {spanRun, "ms"}, {spanEval, "ms"},
	{spanTeardown, "ms"}, {spanVerify, "ms"},
}

// layerResult assembles the per-layer metrics: CPU shares of the traced
// ops, the trace overhead against the untraced ops, the probe's spans and
// counts, and the first seed's evaluation-cache counters. Metrics a
// workload cannot supply (no probe for gen, unparsable counters) read 0
// and are listed as absent.
func (r *run) layerResult(p *replay, sh cpuShares) (*result, error) {
	if len(r.plain) == 0 || len(r.traced) == 0 {
		return nil, fmt.Errorf("%s: traced run has no successful untraced or traced op", r.name)
	}
	wall := func(ops []opResult) float64 {
		var xs []float64
		for _, o := range ops {
			xs = append(xs, o.wallMS)
		}
		return quantile(xs, 0.5)
	}
	res := &result{
		Workload: r.name, Attempted: r.attempted, Failed: r.failed,
		FailFrac:   float64(r.failed) / float64(r.attempted),
		ProbeValid: p != nil && p.valid,
		Metrics:    map[string]metric{},
		Counts:     map[string]uint64{},
	}
	m := res.Metrics
	for _, l := range shareKeys {
		m["cpu_share."+l] = metric{sh.layer[l], "ratio"}
	}
	m["handoff_share"] = metric{sh.handoff, "ratio"}
	m["gc_share"] = metric{sh.gc, "ratio"}
	m["trace_overhead"] = metric{wall(r.traced)/wall(r.plain) - 1, "ratio"}

	if p == nil {
		p = newReplay()
		for _, pm := range probeMetrics {
			res.Absent = append(res.Absent, pm.name)
		}
		res.Absent = append(res.Absent, "sim.ns_per_event")
	}
	for _, pm := range probeMetrics {
		if pm.unit == "count" {
			m[pm.name] = metric{float64(p.counts[pm.name]), pm.unit}
		} else {
			m[pm.name] = metric{p.spans[pm.name], pm.unit}
		}
	}
	maps.Copy(res.Counts, p.counts)
	nsPerEvent := 0.0
	if ev := p.counts[cntEvents]; ev > 0 {
		nsPerEvent = p.spans[spanRun] * 1e6 / float64(ev)
	}
	m["sim.ns_per_event"] = metric{nsPerEvent, "ns"}

	c, ok := r.counters[r.seeds[0]]
	if r.cache && !ok {
		res.Absent = append(res.Absent, "campaign.lookups", "campaign.reuse")
	}
	reuse := 0.0
	if c.lookups > 0 {
		reuse = float64(c.reused) / float64(c.lookups)
	}
	m["campaign.lookups"] = metric{float64(c.lookups), "count"}
	m["campaign.reuse"] = metric{reuse, "ratio"}
	if ok {
		res.Counts["campaign.lookups"] = uint64(c.lookups)
		res.Counts["campaign.reused"] = uint64(c.reused)
	}
	if len(res.Absent) > 0 {
		fmt.Fprintf(os.Stderr, "rmbench: %s: not measured (reported as 0): %v\n", r.name, res.Absent)
	}
	return res, nil
}

// replay runs the workload's in-process probe n times on the first seed.
// Counts must repeat exactly; spans are the medians.
func (r *run) replay(n int) (*replay, error) {
	seed := r.seeds[0]
	var reps []*replay
	for range n {
		p, err := r.probe(seed, r.refs[seed])
		if err != nil {
			return nil, fmt.Errorf("%s: probe: %w", r.name, err)
		}
		if len(reps) > 0 && !maps.Equal(p.counts, reps[0].counts) {
			return nil, fmt.Errorf("%s: probe counts differ between replays: %v vs %v", r.name, p.counts, reps[0].counts)
		}
		reps = append(reps, p)
	}
	out := newReplay()
	out.counts, out.valid = reps[0].counts, true
	for _, p := range reps {
		out.valid = out.valid && p.valid
	}
	for span := range reps[0].spans {
		var xs []float64
		for _, p := range reps {
			xs = append(xs, p.spans[span])
		}
		out.spans[span] = quantile(xs, 0.5)
	}
	if !out.valid {
		fmt.Fprintf(os.Stderr, "rmbench: %s: probe replay does not reproduce the reference; its per-layer numbers are invalid\n", r.name)
	}
	return out, nil
}
