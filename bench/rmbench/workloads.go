package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// workload is one benchmark workload: the CLI op it times, where its
// reference output comes from, and the in-process calls behind its
// set-up and probe metrics.
type workload struct {
	name string
	bin  string
	args func(seed uint64, workers int) []string
	// golden is the testdata file holding the seed-42 reference.
	golden string
	// selfRef marks an op without a -workers flag: the first op of each
	// seed is the reference every later op of that seed must match.
	selfRef bool
	// cache marks a CLI that prints evaluation-cache counters to stderr.
	cache bool
	setup func() error
	// probe replays one op in process; nil when the workload has none.
	probe func(seed uint64, ref []byte) (*replay, error)
}

var workloads = []*workload{
	{
		name: "tablei", bin: "tablei",
		args: func(s uint64, w int) []string {
			return []string{"-csv", "-n", "10", "-seed", fmt.Sprint(s), "-workers", strconv.Itoa(w)}
		},
		golden: "testdata/tablei_seed42_prepr.csv",
		setup:  setupTableI, probe: probeTableI,
	},
	{
		name: "faults", bin: "tablei",
		args: func(s uint64, w int) []string {
			return []string{"-faults", "-csv", "-n", "10", "-seed", fmt.Sprint(s), "-workers", strconv.Itoa(w)}
		},
		golden: "testdata/faults_seed42.csv", cache: true,
		setup: setupFaults, probe: probeFaults,
	},
	{
		name: "gen", bin: "tablei",
		args: func(s uint64, w int) []string {
			return []string{"-gen", "-csv", "-seed", fmt.Sprint(s), "-workers", strconv.Itoa(w)}
		},
		golden: "testdata/gen_seed42.csv", cache: true,
		setup: setupGen,
	},
	{
		name: "flow", bin: "rmtest",
		args: func(s uint64, _ int) []string {
			return []string{"-req", "REQ1", "-scheme", "3", "-n", "10", "-seed", fmt.Sprint(s)}
		},
		selfRef: true,
		setup:   setupFlow, probe: probeFlow,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want tablei, faults, gen or flow)", name)
}

// seedsPerRun is how many consecutive seeds a run's ops cycle through.
// The generation pipeline's work varies by about 10% from seed to seed;
// cycling eight seeds keeps that variation out of the run's medians.
const seedsPerRun = 8

// opTimeout bounds one CLI process.
const opTimeout = 120 * time.Second

// opResult is one CLI process: its wall time, CPU time and peak RSS as
// its launcher measured them, and its output.
type opResult struct {
	wallMS, cpuMS, rssMB float64
	stdout, stderr       []byte
	err                  error
}

// exec runs one CLI process with GOMAXPROCS=2 through a launcher (see
// launch) and waits for both.
func (b *bench) exec(bin string, args []string) opResult {
	rd, wr, err := os.Pipe()
	if err != nil {
		return opResult{err: err}
	}
	defer rd.Close()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.self, append([]string{launchFlag, filepath.Join(b.binDir, bin)}, args...)...)
	cmd.Dir = b.root
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.ExtraFiles = []*os.File{wr}
	// The launcher and the CLI share a process group, so a timeout kills
	// both.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	err = cmd.Start()
	wr.Close()
	if err == nil {
		err = cmd.Wait()
	}
	res := opResult{stdout: out.Bytes(), stderr: errb.Bytes(), err: err}
	var u usage
	if derr := json.NewDecoder(rd).Decode(&u); derr != nil && err == nil {
		res.err = fmt.Errorf("launcher report: %w", derr)
	}
	res.wallMS = float64(u.WallNS) / 1e6
	res.cpuMS = float64(u.CPUNS) / 1e6
	res.rssMB = float64(u.MaxRSSKB) / 1024 // Linux reports KiB
	return res
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// cacheCounters are the evaluation-cache counters a CLI prints to stderr.
type cacheCounters struct{ lookups, reused int }

var counterLine = regexp.MustCompile(`(?m)^(lookups|hits|deduped)\s+(\d+)\s*$`)

// parseCounters reads the cache counters from a CLI's stderr; ok is false
// when any is missing, so a changed report format reads as absent rather
// than as a failed op.
func parseCounters(stderr []byte) (cacheCounters, bool) {
	got := map[string]int{}
	for _, m := range counterLine.FindAllSubmatch(stderr, -1) {
		n, err := strconv.Atoi(string(m[2]))
		if err != nil {
			return cacheCounters{}, false
		}
		got[string(m[1])] = n
	}
	if len(got) != 3 {
		return cacheCounters{}, false
	}
	return cacheCounters{lookups: got["lookups"], reused: got["hits"] + got["deduped"]}, true
}

// run is one workload's state within one set (or one timed run): its op
// seeds and references, and every op's measurements.
type run struct {
	*workload
	b     *bench
	seeds []uint64
	refs  map[uint64][]byte
	next  int // op i uses seeds[i%len(seeds)]

	plain, traced     []opResult // successful timed ops, untraced and traced
	calib             []float64  // calibration times after the untraced ops, ms
	setupTimes        []float64  // set-up repetitions, s
	profiles          []string
	attempted, failed int
	counters          map[uint64]cacheCounters
}

func (b *bench) newRun(w *workload, seed uint64) *run {
	r := &run{workload: w, b: b, refs: map[uint64][]byte{}, counters: map[uint64]cacheCounters{}}
	for i := range uint64(seedsPerRun) {
		r.seeds = append(r.seeds, seed+i)
	}
	return r
}

// prepare loads the references of the first n op seeds: the repository's
// golden for seed 42, otherwise the output of a single-worker invocation,
// so every op is also checked against the sequential path. Reference
// invocations run two at a time; each uses one worker.
func (r *run) prepare(n int) error {
	var need []uint64
	for _, s := range r.seeds[:min(n, len(r.seeds))] {
		switch {
		case s == 42 && r.golden != "":
			data, err := os.ReadFile(filepath.Join(r.b.root, r.golden))
			if err != nil {
				return fmt.Errorf("%s: reference: %w", r.name, err)
			}
			r.refs[s] = data
		case !r.selfRef:
			need = append(need, s)
		}
	}
	res := make([]opResult, len(need))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, s := range need {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			res[i] = r.b.exec(r.bin, r.args(s, 1))
			<-sem
		}()
	}
	wg.Wait()
	for i, s := range need {
		if res[i].err != nil {
			return fmt.Errorf("%s: reference for seed %d: %v: %s", r.name, s, res[i].err, res[i].stderr)
		}
		r.refs[s] = res[i].stdout
	}
	return nil
}

// op runs the next op, checks its stdout against the reference, and
// records it. A traced op also writes a CPU profile. Timing of a failed
// op is discarded.
func (r *run) op(timed, traced bool) error {
	seed := r.seeds[r.next%len(r.seeds)]
	r.next++
	args := r.args(seed, 2)
	var prof string
	if traced {
		prof = filepath.Join(r.b.profDir, fmt.Sprintf("%s-%d", r.name, len(r.profiles)))
		args = append(args, "-pprof", prof)
	}
	res := r.b.exec(r.bin, args)
	r.attempted++
	if res.err != nil || !r.check(seed, res.stdout) {
		r.failed++
		fmt.Fprintf(os.Stderr, "rmbench: %s seed %d: op failed (exit: %v) or its stdout differs from the reference\n", r.name, seed, res.err)
		if traced {
			os.Remove(prof + ".cpu.pprof")
			os.Remove(prof + ".heap.pprof")
		}
		return nil
	}
	if r.cache {
		if c, found := parseCounters(res.stderr); found {
			if prev, seen := r.counters[seed]; seen && prev != c {
				return fmt.Errorf("%s seed %d: cache counters %+v differ from an earlier op's %+v", r.name, seed, c, prev)
			}
			r.counters[seed] = c
		}
	}
	switch {
	case traced:
		r.traced = append(r.traced, res)
		r.profiles = append(r.profiles, prof)
	case timed:
		r.plain = append(r.plain, res)
		// Calibrate for about a tenth of the op's time, so that short and
		// long ops sample the host's speed equally densely.
		for spent := 0.0; spent < res.wallMS/10; {
			c := calibrate()
			r.calib = append(r.calib, c)
			spent += c
		}
		return r.timeSetup()
	}
	return nil
}

// check reports whether an op's stdout equals its seed's reference byte
// for byte. A self-referenced workload adopts the first output of each
// seed as its reference.
func (r *run) check(seed uint64, stdout []byte) bool {
	ref, have := r.refs[seed]
	if !have && r.selfRef {
		r.refs[seed] = stdout
		return true
	}
	return have && bytes.Equal(stdout, ref)
}

// timeSetup times setupRepsPerOp repetitions of the workload's set-up
// calls. Running them between ops, beside the calibrations, spreads them
// over the same stretch of host time the ops see.
func (r *run) timeSetup() error {
	for range setupRepsPerOp {
		t := time.Now()
		if err := r.setup(); err != nil {
			return fmt.Errorf("%s: set-up: %w", r.name, err)
		}
		r.setupTimes = append(r.setupTimes, time.Since(t).Seconds())
	}
	return nil
}

// shares merges the traced ops' CPU profiles with `go tool pprof -traces`
// and attributes them to layers. The profiles are removed afterwards.
func (r *run) shares() (cpuShares, error) {
	if len(r.profiles) == 0 {
		return cpuShares{}, fmt.Errorf("%s: no traced op succeeded", r.name)
	}
	args := []string{"tool", "pprof", "-traces", filepath.Join(r.b.binDir, r.bin)}
	for _, p := range r.profiles {
		args = append(args, p+".cpu.pprof")
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = r.b.root
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	for _, p := range r.profiles {
		os.Remove(p + ".cpu.pprof")
		os.Remove(p + ".heap.pprof")
	}
	r.profiles = nil
	if err != nil {
		return cpuShares{}, fmt.Errorf("%s: go tool pprof: %v: %s", r.name, err, errb.Bytes())
	}
	samples, err := parseTraces(bytes.NewReader(out))
	if err != nil {
		return cpuShares{}, err
	}
	return attribute(samples), nil
}
