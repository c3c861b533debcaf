package rtos

import (
	"fmt"

	"rmtest/internal/sim"
)

// This file implements the RTOS half of the snapshot/restore machinery
// behind the prefix-sharing candidate evaluator: capturing the complete
// task/scheduler/queue state of a quiescent instant and rewinding a
// live scheduler back to it.
//
// At a quiescent instant every live task is suspended at a release
// boundary, so its coroutine's continuation is "begin the next release",
// and which release that is lives entirely in struct fields
// (nextRelease, releases) that a restore rewrites. A task that a later
// run left mid-release (a restore can land while a compute burst is in
// flight) has its coroutine stopped and a fresh one started at the
// periodic loop head, which is the same continuation.
//
// Pending kernel events (task wakes, start events, compute completions)
// are deliberately NOT captured here: the sim.Kernel captures and
// replays every pending event generically, and the wake/start closures
// act on whatever task state they find — which, after a restore, is the
// snapshot's state. Quiescence guarantees no compute/switch/slice event
// is pending, so the only scheduler-owned events crossing a snapshot
// are task wakes and start events, both replay-safe.

// taskSnap is one task's captured state.
type taskSnap struct {
	state          TaskState
	prio           int
	readyAt        sim.Time
	blockVal       any
	blockOK        bool
	cpuTime        sim.Time
	releases       uint64
	missedReleases uint64
	nextRelease    sim.Time
	ovFrom         sim.Time
	ovTo           sim.Time
	ovNum          int64
	ovDen          int64
}

// queueSnap is one queue's captured state.
type queueSnap struct {
	items        []any
	enqAt        []sim.Time
	maxDepth     int
	enqueued     uint64
	dropped      uint64
	totalWait    sim.Time
	waitCount    uint64
	dropFrom     sim.Time
	dropTo       sim.Time
	dropEvery    int
	dropCount    uint64
	faultDropped uint64
}

// traceSnap is the scheduler trace ring's captured state.
type traceSnap struct {
	buf     []TraceRecord
	next    int
	wrapped bool
	total   uint64
}

// SchedSnap is a complete capture of scheduler, task and queue state at
// a quiescent instant, created by Scheduler.Snapshot and consumed by
// Scheduler.Restore. It is opaque to callers.
type SchedSnap struct {
	tasks     []taskSnap
	queues    map[string]queueSnap
	trace     traceSnap
	lastOnCPU int // index into s.tasks; -1 for none
	idleFrom  sim.Time
	idleTime  sim.Time
	switches  uint64
	preempts  uint64
	stormISRs uint64
}

// Quiescent reports whether the scheduler is at a snapshot-eligible
// instant: the CPU idle with no switch, compute burst or slice in
// flight, no scheduling pass pending, the ready list empty, and every
// task either done or parked at a release boundary (so its coroutine
// holds no live stack state). Mutex and semaphore state is not
// captured, so any held mutex also disqualifies.
func (s *Scheduler) Quiescent() bool {
	if s.current != nil || s.switching || s.kickPending || s.inLoop {
		return false
	}
	if s.computeDone.Pending() || s.sliceEnd.Pending() || s.switchDone.Pending() {
		return false
	}
	if len(s.ready) != 0 {
		return false
	}
	for _, t := range s.tasks {
		if t.state == TaskDone {
			continue
		}
		// Only a periodic task can restart at its loop head, and only
		// its release state is stack-free; a live plain task
		// disqualifies the whole scheduler.
		if t.period == 0 {
			return false
		}
		if !t.parkedAtRelease || t.state == TaskBlocked || len(t.holding) != 0 {
			return false
		}
	}
	return true
}

// Snapshot captures the scheduler's complete state. It returns false
// when the scheduler is not quiescent; the caller falls back to plain
// evaluation.
func (s *Scheduler) Snapshot() (*SchedSnap, bool) {
	if !s.Quiescent() {
		return nil, false
	}
	snap := &SchedSnap{
		tasks:     make([]taskSnap, len(s.tasks)),
		queues:    make(map[string]queueSnap, len(s.queues)),
		lastOnCPU: -1,
		idleFrom:  s.idleFrom,
		idleTime:  s.idleTime,
		switches:  s.switches,
		preempts:  s.preempts,
		stormISRs: s.stormISRs,
	}
	for i, t := range s.tasks {
		if t == s.lastOnCPU {
			snap.lastOnCPU = i
		}
		snap.tasks[i] = taskSnap{
			state:          t.state,
			prio:           t.prio,
			readyAt:        t.readyAt,
			blockVal:       t.blockVal,
			blockOK:        t.blockOK,
			cpuTime:        t.cpuTime,
			releases:       t.releases,
			missedReleases: t.missedReleases,
			nextRelease:    t.nextRelease,
			ovFrom:         t.ovFrom,
			ovTo:           t.ovTo,
			ovNum:          t.ovNum,
			ovDen:          t.ovDen,
		}
	}
	for name, q := range s.queues {
		snap.queues[name] = queueSnap{
			items:        append([]any(nil), q.items...),
			enqAt:        append([]sim.Time(nil), q.enqAt...),
			maxDepth:     q.maxDepth,
			enqueued:     q.enqueued,
			dropped:      q.dropped,
			totalWait:    q.totalWait,
			waitCount:    q.waitCount,
			dropFrom:     q.dropFrom,
			dropTo:       q.dropTo,
			dropEvery:    q.dropEvery,
			dropCount:    q.dropCount,
			faultDropped: q.faultDropped,
		}
	}
	snap.trace = traceSnap{
		buf:     append([]TraceRecord(nil), s.trace.buf...),
		next:    s.trace.next,
		wrapped: s.trace.wrapped,
		total:   s.trace.total,
	}
	return snap, true
}

// Restore rewrites the scheduler's complete state from a snapshot taken
// on the same scheduler. A live task left mid-release restarts at its
// periodic loop head; stopping its coroutine only unwinds the body's
// stack, so it needs no ordering against the kernel rewind. Pending
// events (task wakes, start events) are replayed by the kernel capture,
// not here. Task count must match the snapshot — tasks are never
// removed, and a restore never crosses a Spawn.
func (s *Scheduler) Restore(snap *SchedSnap) {
	if len(snap.tasks) != len(s.tasks) {
		panic(fmt.Sprintf("rtos: Restore with %d task snapshots over %d tasks", len(snap.tasks), len(s.tasks)))
	}
	for i, t := range s.tasks {
		if t.state != TaskDone && !t.parkedAtRelease {
			t.stop()
			t.start()
		}
		ts := snap.tasks[i]
		t.state = ts.state
		t.prio = ts.prio
		t.readyAt = ts.readyAt
		t.blockVal = ts.blockVal
		t.blockOK = ts.blockOK
		t.blockedOn, t.blockedBy = "", ""
		t.cpuTime = ts.cpuTime
		t.releases = ts.releases
		t.missedReleases = ts.missedReleases
		t.nextRelease = ts.nextRelease
		t.ovFrom, t.ovTo = ts.ovFrom, ts.ovTo
		t.ovNum, t.ovDen = ts.ovNum, ts.ovDen
		t.pendingCompute = 0
		t.wakeEv = sim.Event{}
	}
	for name, qs := range snap.queues {
		q := s.queues[name]
		q.items = append(q.items[:0], qs.items...)
		q.enqAt = append(q.enqAt[:0], qs.enqAt...)
		q.sendWait = q.sendWait[:0]
		q.recvWait = q.recvWait[:0]
		q.maxDepth = qs.maxDepth
		q.enqueued = qs.enqueued
		q.dropped = qs.dropped
		q.totalWait = qs.totalWait
		q.waitCount = qs.waitCount
		q.dropFrom, q.dropTo = qs.dropFrom, qs.dropTo
		q.dropEvery = qs.dropEvery
		q.dropCount = qs.dropCount
		q.faultDropped = qs.faultDropped
	}
	s.trace.buf = append(s.trace.buf[:0], snap.trace.buf...)
	s.trace.next = snap.trace.next
	s.trace.wrapped = snap.trace.wrapped
	s.trace.total = snap.trace.total
	s.current = nil
	s.ready = s.ready[:0]
	s.switching = false
	s.switchTarget = nil
	s.computeDone = sim.Event{}
	s.switchDone = sim.Event{}
	s.sliceEnd = sim.Event{}
	s.inLoop = false
	s.kickPending = false
	if snap.lastOnCPU >= 0 {
		s.lastOnCPU = s.tasks[snap.lastOnCPU]
	} else {
		s.lastOnCPU = nil
	}
	s.idleFrom = snap.idleFrom
	s.idleTime = snap.idleTime
	s.switches = snap.switches
	s.preempts = snap.preempts
	s.stormISRs = snap.stormISRs
}
