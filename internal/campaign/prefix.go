// Prefix-sharing batch evaluation: candidate schedules that share a
// stimulus prefix are simulated once up to their divergence instant,
// snapshotted there, and resumed per branch — instead of replaying the
// shared prefix from time zero for every candidate.
//
// The engine is generic over the simulation stack: callers provide a
// PrefixOps vtable (build/arm/advance/snapshot/restore/extract) and a
// step sequence per run; the engine sorts the sequences into a prefix
// trie and walks it depth-first. Determinism is preserved because every
// per-candidate result is required to be byte-identical to the plain
// path (ops.Plain) — the snapshot machinery reproduces the exact event
// interleaving of a from-scratch run — so neither worker count nor
// chunking (which changes only which candidates end up sharing) can
// change any result.
//
// The walk is conservative: whenever a snapshot is refused (system not
// quiescent at the divergence instant, verdict machines attached) or any
// shared-prefix simulation panics, the affected candidates fall back to
// ops.Plain, which is also the reference the byte-identity contract is
// stated against.
package campaign

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// PrefixStep is one schedulable element of a candidate's step sequence.
// Two candidates share a prefix when their leading steps have equal
// Keys, element by element.
type PrefixStep struct {
	// Key identifies the step for prefix comparison; it must encode
	// everything that distinguishes the step's effect on the simulation.
	Key string
	// At is the earliest virtual instant the step affects the
	// simulation; the engine never advances a shared trunk past the At
	// of any step it has not yet armed.
	At int64
	// Arm schedules the step on the worker's live system. It runs either
	// at system construction (trunk) or directly after a restore
	// (branch); both positions schedule construction-phase events, so
	// the interleaving matches a plain run.
	Arm func()
}

// PrefixOps is the vtable a simulation stack exposes to PrefixEval. All
// callbacks run on one goroutine; the live system they operate on is
// owned by that goroutine for the whole batch.
type PrefixOps[T any] struct {
	// Steps returns the run's step sequence. Called once per run.
	Steps func(run Run) []PrefixStep
	// Horizon returns the run's simulation horizon.
	Horizon func(run Run) int64
	// Start builds a live system with the given steps armed and returns
	// the virtual instant it starts at: 0 for a freshly constructed
	// system, or a later instant when the implementation resumed from a
	// caller-held warm-up snapshot (a pristine capture with no steps
	// armed, taken at or before the At of every step and horizon in the
	// batch). Virtual time the system skipped is counted as avoided
	// simulation.
	Start func(steps []PrefixStep) (int64, error)
	// AdvanceSnapshot runs the live system forward — events strictly
	// before to fire, the clock lands on to — and captures its complete
	// state at the latest snapshot-eligible instant at or before to,
	// reporting the capture instant. ok=false means no eligible instant
	// was found (the system never went quiescent near the bound); the
	// walk falls back to plain evaluation for the whole subtree.
	AdvanceSnapshot func(to int64) (snap any, at int64, ok bool)
	// Restore rewinds the live system to a snapshot and arms the given
	// steps as the resuming branch's suffix.
	Restore func(snap any, steps []PrefixStep)
	// Finish runs the live system to the run's horizon and extracts its
	// result.
	Finish func(run Run) (T, error)
	// Plain evaluates the run from scratch, sharing nothing — the
	// fallback and the reference the shared path must be byte-identical
	// to.
	Plain func(run Run) (T, error)
	// Stop shuts the live system down (if one is running).
	Stop func()
	// Abort, when non-nil, replaces Stop after a panic in the shared
	// walk: the live system may be wedged mid-event, so implementations
	// that keep state across batches (warm-up snapshots) must discard it
	// here rather than resume from it later. Nil falls back to Stop.
	Abort func()
}

// PrefixStats summarises how much simulation a prefix-shared batch
// avoided. SimTime counts the virtual time actually simulated (trunk
// advances plus per-branch completions); PlainTime counts the virtual
// time evaluating every run from scratch would have simulated.
type PrefixStats struct {
	Runs       int
	SharedRuns int // evaluated by snapshot/resume
	PlainRuns  int // evaluated by the fallback path
	Snapshots  int
	Restores   int
	SimTime    int64
	PlainTime  int64
}

// ReuseRatio returns the fraction of plain-evaluation virtual time the
// shared walk avoided, in [0, 1].
func (s PrefixStats) ReuseRatio() float64 {
	if s.PlainTime <= 0 {
		return 0
	}
	r := 1 - float64(s.SimTime)/float64(s.PlainTime)
	if r < 0 {
		return 0
	}
	return r
}

// Add accumulates another batch's stats into s.
func (s *PrefixStats) Add(o PrefixStats) {
	s.Runs += o.Runs
	s.SharedRuns += o.SharedRuns
	s.PlainRuns += o.PlainRuns
	s.Snapshots += o.Snapshots
	s.Restores += o.Restores
	s.SimTime += o.SimTime
	s.PlainTime += o.PlainTime
}

func (s PrefixStats) String() string {
	return fmt.Sprintf("%d runs (%d shared, %d plain), %d snapshots, %d restores, %.1f%% prefix reuse",
		s.Runs, s.SharedRuns, s.PlainRuns, s.Snapshots, s.Restores, 100*s.ReuseRatio())
}

// PrefixStatsSink accumulates prefix-sharing statistics across batches.
// It is safe for concurrent use; sums are order-independent, so the
// aggregate is deterministic regardless of chunk completion order.
type PrefixStatsSink struct {
	mu sync.Mutex
	s  PrefixStats
}

// Add folds one batch's statistics into the sink.
func (p *PrefixStatsSink) Add(s PrefixStats) {
	p.mu.Lock()
	p.s.Add(s)
	p.mu.Unlock()
}

// Stats returns the accumulated statistics.
func (p *PrefixStatsSink) Stats() PrefixStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.s
}

// prefixSnap pairs a snapshot with the instant it was taken at.
type prefixSnap struct {
	snap any
	at   int64
}

// prefixWalker holds the state of one batch's trie walk.
type prefixWalker[T any] struct {
	ops   PrefixOps[T]
	runs  []Run
	steps [][]PrefixStep
	hors  []int64

	outs  []Outcome[T]
	done  []bool
	now   int64
	stats PrefixStats
}

// PrefixEval evaluates a batch of runs with prefix sharing and returns
// the outcomes in run order plus the batch's sharing statistics. It is
// sequential: callers wanting parallelism shard the batch into chunks
// (MapBatchCached does) — per-run results are independent of chunking.
func PrefixEval[T any](runs []Run, ops PrefixOps[T]) ([]Outcome[T], PrefixStats) {
	w := &prefixWalker[T]{
		ops:   ops,
		runs:  runs,
		steps: make([][]PrefixStep, len(runs)),
		hors:  make([]int64, len(runs)),
		outs:  make([]Outcome[T], len(runs)),
		done:  make([]bool, len(runs)),
	}
	for i, r := range runs {
		w.outs[i].Run = r
		w.steps[i] = ops.Steps(r)
		w.hors[i] = ops.Horizon(r)
		w.stats.PlainTime += w.hors[i]
	}
	w.stats.Runs = len(runs)
	if len(runs) > 0 {
		w.walk()
	}
	// Fallback for everything the shared walk did not finish.
	for i := range runs {
		if w.done[i] {
			continue
		}
		w.outs[i].Value, w.outs[i].Err = protectPlain(w.ops.Plain, runs[i])
		w.done[i] = true
		w.stats.PlainRuns++
		w.stats.SimTime += w.hors[i]
	}
	return w.outs, w.stats
}

// walk runs the shared trie walk with panic isolation: a panic anywhere
// in the shared path abandons the live system and leaves the unfinished
// runs to the plain fallback.
func (w *prefixWalker[T]) walk() {
	defer func() {
		if p := recover(); p != nil {
			// The live system may be wedged mid-event; stop it as well as
			// possible and let the fallback rebuild from scratch. Abort,
			// when provided, also discards any cross-batch state.
			func() {
				defer func() { recover() }()
				if w.ops.Abort != nil {
					w.ops.Abort()
				} else {
					w.ops.Stop()
				}
			}()
			return
		}
		w.ops.Stop()
	}()
	group := make([]int, len(w.runs))
	for i := range group {
		group[i] = i
	}
	d := w.extend(group, 0)
	at, err := w.ops.Start(w.steps[group[0]][:d])
	if err != nil {
		return
	}
	w.now = at
	w.descend(group, d)
}

// extend returns the depth of the longest step prefix shared by every
// candidate in the group, starting from an already-shared depth d.
func (w *prefixWalker[T]) extend(group []int, d int) int {
	for {
		first := w.steps[group[0]]
		if len(first) <= d {
			return d
		}
		key := first[d].Key
		for _, i := range group[1:] {
			st := w.steps[i]
			if len(st) <= d || st[d].Key != key {
				return d
			}
		}
		d++
	}
}

// descend processes one trie node: the live system has the group's
// shared steps [0:d) armed and its clock at w.now, which is at or
// before the At of every unarmed step and every horizon in the group.
func (w *prefixWalker[T]) descend(group []int, d int) {
	if len(group) == 1 {
		w.finish(group[0])
		return
	}
	// Advance the shared trunk to the divergence bound — the earliest
	// instant any candidate's unarmed suffix (or horizon) needs — and
	// snapshot at the latest eligible instant on the way there. Branches
	// resume from the snapshot and replay the (short) shared tail up to
	// the bound themselves.
	tAdv := w.hors[group[0]]
	for _, i := range group {
		if h := w.hors[i]; h < tAdv {
			tAdv = h
		}
		for _, st := range w.steps[i][d:] {
			if st.At < tAdv {
				tAdv = st.At
			}
		}
	}
	snap, at, ok := w.ops.AdvanceSnapshot(tAdv)
	if tAdv > w.now {
		w.stats.SimTime += tAdv - w.now
		w.now = tAdv
	}
	if !ok {
		return // whole subtree falls back to plain evaluation
	}
	w.stats.Snapshots++
	entry := prefixSnap{snap: snap, at: at}

	// Terminal candidates (their whole sequence is armed) run to their
	// horizon from the entry snapshot; children partition by their next
	// step's key, in first-seen order, and recurse.
	var order []string
	children := make(map[string][]int)
	for _, i := range group {
		st := w.steps[i]
		if len(st) == d {
			w.restore(entry, nil)
			w.finish(i)
			continue
		}
		key := st[d].Key
		if _, seen := children[key]; !seen {
			order = append(order, key)
		}
		children[key] = append(children[key], i)
	}
	for _, key := range order {
		ch := children[key]
		d2 := w.extend(ch, d)
		w.restore(entry, w.steps[ch[0]][d:d2])
		w.descend(ch, d2)
	}
}

func (w *prefixWalker[T]) restore(s prefixSnap, steps []PrefixStep) {
	w.ops.Restore(s.snap, steps)
	w.stats.Restores++
	w.now = s.at
}

func (w *prefixWalker[T]) finish(i int) {
	val, err := w.ops.Finish(w.runs[i])
	w.outs[i].Value, w.outs[i].Err = val, err
	w.done[i] = true
	w.stats.SharedRuns++
	if h := w.hors[i]; h > w.now {
		w.stats.SimTime += h - w.now
	}
	w.now = w.hors[i]
}

// protectPlain invokes the plain fallback with panic isolation.
func protectPlain[T any](fn func(Run) (T, error), r Run) (val T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("campaign: run %d (seed %#x) panicked: %v\n%s", r.Index, r.Seed, p, debug.Stack())
		}
	}()
	return fn(r)
}

// MapBatchCached is the batch-granular sibling of MapScratchCached: hit
// and duplicate resolution are identical, but the misses are handed to
// the batch callback in contiguous run-order chunks (one per worker, at
// most Workers chunks) instead of run by run — so a prefix-sharing
// evaluator sees whole batches of related candidates. batch must return
// exactly one outcome per run, in run order; its per-run values must
// not depend on how the misses were chunked (the PrefixEval
// byte-identity contract). Commit order and run identities follow the
// MapScratchCached rules — errors are never cached — so cached and
// uncached campaigns stay byte-identical at every worker count. A nil
// cache skips lookup and commit but still chunks.
func MapBatchCached[T, S any](cfg Config, cache *Cache, keys []uint64, newScratch func() S,
	batch func(runs []Run, scratch S) ([]Outcome[T], error)) []Outcome[T] {
	n := len(keys)
	outs := make([]Outcome[T], n)
	seeds := Seeds(cfg.Seed, n)
	for i := range outs {
		outs[i].Run = Run{Index: i, Seed: seeds[i]}
	}
	if n == 0 {
		return outs
	}
	primaries := make([]int, 0, n)
	primaryOf := make(map[uint64]int)
	dups := make([][2]int, 0)
	deduped := 0
	for i, key := range keys {
		if cache != nil {
			if p, ok := primaryOf[key]; ok {
				dups = append(dups, [2]int{i, p})
				deduped++
				continue
			}
			if v, ok := cache.Get(key); ok {
				if val, ok := v.(T); ok {
					outs[i].Value = val
					continue
				}
			}
			primaryOf[key] = i
		}
		primaries = append(primaries, i)
	}
	if cache != nil {
		cache.noteDeduped(deduped)
	}
	if len(primaries) > 0 {
		// Contiguous run-order chunks, one per worker.
		nc := cfg.workers()
		if nc > len(primaries) {
			nc = len(primaries)
		}
		chunks := make([][]int, 0, nc)
		for c := 0; c < nc; c++ {
			lo, hi := c*len(primaries)/nc, (c+1)*len(primaries)/nc
			chunks = append(chunks, primaries[lo:hi])
		}
		results := make([][]Outcome[T], len(chunks))
		errs := make([]error, len(chunks))
		eval := func(c int) {
			runs := make([]Run, len(chunks[c]))
			for k, i := range chunks[c] {
				runs[k] = outs[i].Run
			}
			results[c], errs[c] = protectBatch(batch, runs, newScratch())
		}
		if len(chunks) == 1 {
			eval(0)
		} else {
			var wg sync.WaitGroup
			wg.Add(len(chunks))
			for c := range chunks {
				go func(c int) {
					defer wg.Done()
					eval(c)
				}(c)
			}
			wg.Wait()
		}
		// Commit on this goroutine in run order: deterministic eviction.
		for c, chunk := range chunks {
			for k, i := range chunk {
				if errs[c] != nil {
					outs[i].Err = errs[c]
					continue
				}
				outs[i].Value, outs[i].Err = results[c][k].Value, results[c][k].Err
				if cache != nil && outs[i].Err == nil {
					cache.Put(keys[i], results[c][k].Value)
				}
			}
		}
	}
	for _, dp := range dups {
		outs[dp[0]].Value, outs[dp[0]].Err = outs[dp[1]].Value, outs[dp[1]].Err
	}
	return outs
}

// protectBatch invokes one chunk's batch callback with panic isolation
// and validates the one-outcome-per-run contract.
func protectBatch[T, S any](batch func([]Run, S) ([]Outcome[T], error), runs []Run, scratch S) (vals []Outcome[T], err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("campaign: batch of %d runs panicked: %v\n%s", len(runs), p, debug.Stack())
		}
	}()
	vals, err = batch(runs, scratch)
	if err == nil && len(vals) != len(runs) {
		return nil, fmt.Errorf("campaign: batch returned %d outcomes for %d runs", len(vals), len(runs))
	}
	return vals, err
}
