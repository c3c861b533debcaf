package platform

import (
	"time"

	"rmtest/internal/codegen"
	"rmtest/internal/env"
	"rmtest/internal/fourvar"
	"rmtest/internal/hw"
	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

// This file orchestrates snapshot/restore across the whole vertical
// stack, for the prefix-sharing candidate evaluator: when many
// candidate schedules share a stimulus prefix, the shared prefix is
// simulated once, a snapshot is taken at the divergence instant, and
// each branch resumes from the snapshot instead of replaying the prefix
// from time zero.
//
// A snapshot is only taken at a quiescent instant — kernel idle between
// events, no task mid-release, no compute/switch in flight — so no task
// coroutine stack state needs capturing. Restore then proceeds in a
// fixed order:
//
//  1. Kernel.Rewind — discard every pending event, rewind the clock to
//     the snapshot instant and the sequence counter to zero.
//  2. Component data restores — scheduler/tasks/queues (a task a later
//     run left mid-release restarts at its release boundary), devices,
//     signals, executor, traces, scheme hooks, platform counters. Data
//     first: a branch's arm() may write device fault windows directly
//     (InjectJitter and friends set struct fields at arm time), and
//     those writes must land on top of the restored state, not under it.
//  3. Re-arm captured construction events in original sequence order.
//  4. The caller's arm() — the branch's own suffix stimuli or fault
//     plan, scheduled as construction events.
//  5. MarkConstruction — everything re-armed after this point is a
//     runtime event again.
//  6. Re-arm captured runtime events in original sequence order.
//
// Steps 3-6 reproduce the plain-run sequence-number law — at tied
// instants every construction event (stimuli, fault window edges, task
// starts, board ticks) fires before any runtime event — so a resumed
// branch interleaves exactly as the same schedule simulated from
// scratch. Each captured closure encodes one fixed pending effect
// acting on component state the restore has already rewritten, so
// replaying it verbatim is sound. The whole procedure is sequential
// plain code, so the commit order is a function of the snapshot alone.

type rewindHook struct {
	save    func() any
	restore func(any)
}

// RegisterRewindState registers scheme-private mutable state with the
// snapshot machinery: save captures it, restore rewrites it. Schemes
// call this from Start for state that lives in task-body closures (the
// input edge-detection maps).
func (sys *System) RegisterRewindState(save func() any, restore func(any)) {
	sys.rewindHooks = append(sys.rewindHooks, rewindHook{save: save, restore: restore})
}

// SysSnap is a complete capture of a System at a quiescent instant,
// created by Snapshot and consumed by Restore. It is opaque to callers.
type SysSnap struct {
	now    sim.Time
	events []sim.PendingEvent

	sched *rtos.SchedSnap
	board *hw.BoardSnap
	env   *env.EnvSnap
	exec  *codegen.ExecSnap

	traceMark fourvar.TraceMark
	transMark fourvar.TransMark

	hooks []any

	inputsDropped  uint64
	outputsDropped uint64
	chartTicks     int64
}

// At returns the virtual instant the snapshot was taken at.
func (s *SysSnap) At() sim.Time { return s.now }

// Snapshot captures the System's complete state at the current instant.
// It returns false when the system is not snapshot-eligible: the
// scheduler is not quiescent, a stop condition is installed (the verdict
// machines' stop at the last verdict), or the trace has taps (run-scoped
// observers whose state a rewind cannot restore). Callers fall back to
// plain evaluation on false.
func (sys *System) Snapshot() (*SysSnap, bool) {
	if sys.Kernel.StopConds() != 0 || sys.Trace.TapCount() != 0 {
		return nil, false
	}
	sched, ok := sys.Sched.Snapshot()
	if !ok {
		return nil, false
	}
	return &SysSnap{
		now:            sys.Kernel.Now(),
		events:         sys.Kernel.CaptureEvents(),
		sched:          sched,
		board:          sys.Board.Snapshot(),
		env:            sys.Env.Snapshot(),
		exec:           sys.Exec.Snapshot(),
		traceMark:      sys.Trace.Mark(),
		transMark:      sys.TransTrace.Mark(),
		hooks:          sys.saveHooks(),
		inputsDropped:  sys.inputsDropped,
		outputsDropped: sys.outputsDropped,
		chartTicks:     sys.chartTicks,
	}, true
}

func (sys *System) saveHooks() []any {
	out := make([]any, len(sys.rewindHooks))
	for i, h := range sys.rewindHooks {
		out[i] = h.save()
	}
	return out
}

// Restore rewinds the System to a snapshot previously taken on it, then
// runs arm (which may be nil) to schedule the resuming branch's own
// suffix stimuli or fault plan as construction events. On return the
// system's state is indistinguishable from a plain run of the restored
// prefix plus the armed suffix, paused at the snapshot instant.
func (sys *System) Restore(snap *SysSnap, arm func()) {
	sys.Kernel.Rewind(snap.now)

	sys.Sched.Restore(snap.sched)
	sys.Board.Restore(snap.board)
	sys.Env.Restore(snap.env)
	sys.Exec.Restore(snap.exec)
	sys.Trace.TruncateTo(snap.traceMark)
	sys.TransTrace.TruncateTo(snap.transMark)
	for i, h := range sys.rewindHooks {
		h.restore(snap.hooks[i])
	}
	sys.inputsDropped = snap.inputsDropped
	sys.outputsDropped = snap.outputsDropped
	sys.chartTicks = snap.chartTicks

	for _, ev := range snap.events {
		if ev.Construction {
			sys.Kernel.At(ev.At, ev.Fn)
		}
	}
	if arm != nil {
		arm()
	}
	sys.Kernel.MarkConstruction()
	for _, ev := range snap.events {
		if !ev.Construction {
			sys.Kernel.At(ev.At, ev.Fn)
		}
	}
}

// AdvanceSnapshot tuning. A divergence bound rarely lands on a quiescent
// instant — under load a task is usually mid-burst — so the advance
// captures the snapshot at the latest quiescent instant-boundary inside a
// lookback window before the bound, and the resuming branches replay the
// short shared tail. The window covers several periods of every
// case-study scheme (the longest task period is 130 ms); the spacing
// bounds how many full-state captures one advance can cost.
const (
	snapWindow  = 150 * time.Millisecond // lookback before the bound
	snapSpacing = 10 * time.Millisecond  // min gap between captures
)

// AdvanceSnapshot runs the system forward like Kernel.RunBefore(to) —
// events strictly before to fire, the clock lands on to — and returns a
// snapshot captured at the latest eligible instant at or before to. It
// returns ok=false when no instant in the lookback window was
// snapshot-eligible (a saturated scheduler is never quiescent); the
// caller falls back to plain evaluation.
func (sys *System) AdvanceSnapshot(to sim.Time) (*SysSnap, bool) {
	var best *SysSnap
	lastTry := sim.Time(-1)
	sys.Kernel.RunBeforeHook(to, func() {
		now := sys.Kernel.Now()
		if now+snapWindow < to {
			return
		}
		if best != nil && now < to && lastTry >= 0 && now-lastTry < snapSpacing {
			return
		}
		lastTry = now
		if snap, ok := sys.Snapshot(); ok {
			best = snap
		}
	})
	return best, best != nil
}

// DetachTransTrace hands ownership of the current transition trace to
// whoever holds a reference to it (an extracted MResult) and installs an
// equivalent clone for the system's own continued use, so later restores
// truncate the clone instead of mutating data a result retains.
func (sys *System) DetachTransTrace() {
	sys.TransTrace = sys.TransTrace.Clone()
}
