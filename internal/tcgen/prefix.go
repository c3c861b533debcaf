package tcgen

import (
	"fmt"
	"time"

	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// Prefix-sharing candidate evaluation. The falsification hill-climb and
// ddmin shrinking batches are structurally redundant: every mutant in a
// round perturbs one stimulus of the same parent, and every ddmin
// complement keeps most of the current schedule — so candidate
// schedules overlap heavily in their leading stimuli. With PrefixShare
// on, a batch is evaluated through campaign.PrefixEval: candidates are
// sorted into a prefix trie, each shared prefix is simulated once, the
// system state is snapshotted at the divergence instant, and each
// branch resumes from the snapshot. Results are byte-identical to the
// plain path at every worker count — the plain path is also the
// automatic fallback whenever a snapshot is refused.

// prefixSteps flattens a schedule into the step sequence used for
// prefix comparison and incremental arming: primaries first (the order
// core.Runner.Setup arms them), then auxiliaries in schedule order (the
// order the Prepare hook arms them). Preserving the plain path's arming
// order preserves its event-sequence law — at tied instants events fire
// in arming order — which is what makes a resumed branch byte-identical
// to a from-scratch run.
func (w *prefixWorker) prefixSteps(s Schedule) []campaign.PrefixStep {
	out := make([]campaign.PrefixStep, 0, len(s.Stimuli))
	add := func(st Stimulus, kind byte) {
		out = append(out, campaign.PrefixStep{
			Key: fmt.Sprintf("%c|%s|%d|%d|%d|%d", kind, st.Signal, st.Value, st.Rest, int64(st.Width), int64(st.At)),
			At:  int64(st.At),
			Arm: func() { w.armStimulus(st) },
		})
	}
	for _, st := range s.Stimuli {
		if !st.Aux {
			add(st, 'p')
		}
	}
	for _, st := range s.Stimuli {
		if st.Aux {
			add(st, 'a')
		}
	}
	return out
}

// armStimulus schedules one stimulus on the worker's live system,
// exactly as the plain path does: primaries the way applyStimuli would,
// auxiliaries the way the Prepare hook would.
func (w *prefixWorker) armStimulus(st Stimulus) {
	if st.Width > 0 {
		w.sys.Env.PulseAt(st.At, st.Signal, st.Value, st.Rest, st.Width)
	} else {
		w.sys.Env.SetAt(st.At, st.Signal, st.Value)
	}
}

// sessionMargin is the virtual-time headroom a session resume leaves
// between its snapshot instant and the batch's earliest step: the
// walker's own AdvanceSnapshot still needs events to process and a full
// quiescence-lookback window before the first divergence bound.
const sessionMargin = 200 * time.Millisecond

// prefixSession carries a pristine live system — nothing armed, ever —
// and a monotonically deepening warm-up snapshot across the batches of
// one generator invocation. Successive ddmin rounds (and the hill
// climb's later rounds) evaluate schedules whose earliest stimulus
// moves later and later; without the session every batch re-simulates
// the growing empty warm-up region from time zero, with it the region
// is simulated once and every subsequent batch — including singleton
// evaluations — resumes from the deepest pristine capture. Results stay
// byte-identical: a restored pristine state is exact, and the batch's
// steps are armed through Restore's arm hook, which schedules them as
// construction events just like a from-scratch run.
//
// A session is single-threaded by construction: it is only attached
// when the evaluation runs as one chunk (Workers == 1), so the one live
// system is owned by one goroutine at a time.
type prefixSession struct {
	t       Target
	scratch *platform.Scratch
	sys     *platform.System
	snap    *platform.SysSnap
	// dead latches the first refused warm-up capture (a saturated
	// scheme never goes quiescent) so later batches skip the probe.
	dead bool
}

func newPrefixSession(t Target) *prefixSession {
	return &prefixSession{t: t, scratch: &platform.Scratch{}}
}

// newGenSession creates a prefix session for one generator invocation
// when the options call for it: sharing on, a single-chunk worker
// configuration, and no session already attached by
// an enclosing generator.
func newGenSession(t Target, opt Options) (*prefixSession, bool) {
	if !opt.PrefixShare || opt.Workers != 1 || opt.session != nil {
		return nil, false
	}
	return newPrefixSession(t), true
}

// Close shuts the session's system down and bars further resumes.
func (s *prefixSession) Close() {
	if s.sys != nil {
		s.sys.Shutdown()
		s.sys = nil
	}
	s.snap = nil
	s.dead = true
}

// prefixWorker owns one chunk's live system during a prefix-shared
// batch walk.
type prefixWorker struct {
	t       Target
	opt     Options
	scheds  []Schedule
	scratch *platform.Scratch
	runner  *core.Runner
	sys     *platform.System
	sess    *prefixSession
}

func newPrefixWorker(t Target, opt Options, scheds []Schedule, sess *prefixSession) (*prefixWorker, error) {
	w := &prefixWorker{t: t, opt: opt, scheds: scheds, scratch: &platform.Scratch{}, sess: sess}
	runner, err := core.NewRunner(func(lv platform.Instrument) (*platform.System, error) {
		return t.Prebuilt.NewSystem(t.Scheme(), lv, w.scratch)
	}, t.Req)
	if err != nil {
		return nil, err
	}
	w.runner = runner
	return w, nil
}

// batchBound returns the earliest virtual instant any schedule in the
// batch touches — the first stimulus At or horizon — which is the
// latest instant a pristine warm-up snapshot may be taken at to serve
// every candidate.
func (w *prefixWorker) batchBound() sim.Time {
	bound := sim.Time(1<<63 - 1)
	for _, sc := range w.scheds {
		if h := sc.TestCase().Horizon(w.t.Req); h < bound {
			bound = h
		}
		for _, st := range sc.Stimuli {
			if st.At < bound {
				bound = st.At
			}
		}
	}
	return bound
}

// startFrom resumes the batch from the session's warm-up snapshot,
// deepening it first when the batch's bound allows. It reports the
// virtual instant the live system resumes at, or ok=false when the
// session cannot serve this batch — no session, a refused capture, or a
// batch needing state earlier than the snapshot — in which case the
// caller constructs a fresh system from time zero.
func (w *prefixWorker) startFrom(steps []campaign.PrefixStep) (int64, bool) {
	sess := w.sess
	if sess == nil || sess.dead {
		return 0, false
	}
	target := w.batchBound() - sessionMargin
	if target <= 0 {
		return 0, false
	}
	if sess.sys == nil {
		sys, err := w.t.Prebuilt.NewSystem(w.t.Scheme(), platform.RLevel, sess.scratch)
		if err != nil {
			sess.dead = true
			return 0, false
		}
		snap, ok := sys.AdvanceSnapshot(target)
		if !ok {
			sys.Shutdown()
			sess.dead = true
			return 0, false
		}
		sess.sys, sess.snap = sys, snap
	} else {
		if sess.snap.At() > target {
			return 0, false
		}
		if target > sess.snap.At() {
			// Deepen: replay from the snapshot with nothing armed and
			// capture the latest pristine quiescent instant near the new
			// bound. A refused capture keeps the old snapshot.
			sess.sys.Restore(sess.snap, nil)
			if snap, ok := sess.sys.AdvanceSnapshot(target); ok {
				sess.snap = snap
			}
		}
	}
	// Arm the trunk through Restore's hook so the steps are scheduled as
	// construction events — the same tied-instant ordering as arming at
	// system construction in a plain run.
	w.sys = sess.sys
	w.sys.Restore(sess.snap, func() {
		for _, st := range steps {
			st.Arm()
		}
	})
	return int64(sess.snap.At()), true
}

// ops builds the campaign.PrefixOps vtable over this worker.
func (w *prefixWorker) ops() campaign.PrefixOps[evalOut] {
	return campaign.PrefixOps[evalOut]{
		Steps: func(run campaign.Run) []campaign.PrefixStep {
			return w.prefixSteps(w.scheds[run.Index])
		},
		Horizon: func(run campaign.Run) int64 {
			return int64(w.scheds[run.Index].TestCase().Horizon(w.t.Req))
		},
		Start: func(steps []campaign.PrefixStep) (int64, error) {
			if at, ok := w.startFrom(steps); ok {
				return at, nil
			}
			sys, err := w.t.Prebuilt.NewSystem(w.t.Scheme(), platform.RLevel, w.scratch)
			if err != nil {
				return 0, err
			}
			w.sys = sys
			for _, st := range steps {
				st.Arm()
			}
			return 0, nil
		},
		AdvanceSnapshot: func(to int64) (any, int64, bool) {
			snap, ok := w.sys.AdvanceSnapshot(sim.Time(to))
			if !ok {
				return nil, 0, false
			}
			return snap, int64(snap.At()), true
		},
		Restore: func(snap any, steps []campaign.PrefixStep) {
			w.sys.Restore(snap.(*platform.SysSnap), func() {
				for _, st := range steps {
					st.Arm()
				}
			})
		},
		Finish: func(run campaign.Run) (evalOut, error) {
			tc := w.scheds[run.Index].TestCase()
			w.sys.Run(tc.Horizon(w.t.Req))
			return evalOut{Samples: w.runner.Evaluate(w.sys, tc)}, nil
		},
		Plain: func(run campaign.Run) (evalOut, error) {
			return evalOne(w.t, w.opt, w.scheds[run.Index], w.scratch, platform.RLevel)
		},
		Stop: func() {
			if w.sys == nil {
				return
			}
			if w.sess != nil && w.sys == w.sess.sys {
				// The session keeps its system alive for the next batch;
				// the warm-up snapshot rewinds whatever state this walk
				// left behind.
				w.sys = nil
				return
			}
			w.sys.Shutdown()
			w.sys = nil
		},
		Abort: func() {
			// A panic mid-walk may leave the live system wedged; if it was
			// the session's, the session must never resume from it.
			if w.sess != nil && w.sys == w.sess.sys {
				w.sess.Close()
				w.sys = nil
				return
			}
			if w.sys != nil {
				w.sys.Shutdown()
				w.sys = nil
			}
		},
	}
}

// evaluatePrefix is the PrefixShare variant of evaluate: same campaign
// configuration, fingerprints, cache semantics and run identities, but
// the cache misses are walked as prefix tries on contiguous run-order
// chunks, one per worker. Batch sharing statistics accumulate into
// opt's stats sink via the returned stats.
func evaluatePrefix(t Target, opt Options, seed uint64, scheds []Schedule) ([]evalOut, error) {
	cfg := campaign.Config{Workers: opt.Workers, Seed: seed, OnProgress: opt.Progress}
	keys := make([]uint64, len(scheds))
	for i, sc := range scheds {
		keys[i] = fingerprint(t, opt, platform.RLevel, sc)
	}
	// The session's live system is single-owner: only attach it when the
	// whole batch runs as one chunk on the calling goroutine.
	sess := opt.session
	if opt.Workers != 1 {
		sess = nil
	}
	type workerOrErr struct {
		w   *prefixWorker
		err error
	}
	outs := campaign.MapBatchCached(cfg, opt.Cache, keys,
		func() workerOrErr {
			w, err := newPrefixWorker(t, opt, scheds, sess)
			return workerOrErr{w: w, err: err}
		},
		func(runs []campaign.Run, we workerOrErr) ([]campaign.Outcome[evalOut], error) {
			if we.err != nil {
				return nil, we.err
			}
			res, stats := campaign.PrefixEval(runs, we.w.ops())
			recordPrefixStats(opt, stats)
			return res, nil
		})
	return campaign.Values(outs)
}

// recordPrefixStats folds one chunk's sharing statistics into the
// option sink, if any. Sums are order-independent, so the aggregate is
// deterministic even though chunks finish in scheduling order.
func recordPrefixStats(opt Options, stats campaign.PrefixStats) {
	if opt.PrefixStats != nil {
		opt.PrefixStats.Add(stats)
	}
}
