// Package rtos simulates a small real-time operating system in virtual
// time. It stands in for the FreeRTOS kernel the paper's case study runs
// on (ARM7 + FreeRTOS): fixed-priority preemptive scheduling, FIFO
// message queues, and interrupt service routines that steal CPU time.
// Tasks exchange data only through queues, and only with zero-timeout
// calls, so no task ever waits on a queue: a task is ready, running,
// sleeping until its next release, or done. The CPU is either idle or
// running one task's compute burst; switching tasks costs no time.
//
// Tasks are written as ordinary Go functions, and each release of a task
// runs its body once, as a plain call on the scheduler's own stack. Code
// between Compute calls executes in zero virtual time; all passage of
// time is explicit via (*Task).Compute, and a task sleeps only between
// releases. This makes every schedule — including preemptions, queueing
// delays and starvation — exactly reproducible, which is what lets the
// testing layers above measure delay segments without perturbation.
//
// A compute burst that ends before the next pending kernel event cannot be
// preempted, stretched or observed, so under sim.Kernel.Run Task.Compute
// completes it inline: it moves the clock to the burst's end
// (sim.Kernel.Advance) and returns into the body, with no burst-end event.
// Compute waits for any other burst in place: it fires the run's next
// kernel events itself (sim.Kernel.RunUntil) until its task is back on
// the CPU with the burst done. A release that preempts the task runs
// nested inside that Compute and always finishes first, so releases nest
// like a stack, and all of them share the one the run is on, as OSEK
// basic tasks do. A run that ends with releases on the stack abandons
// them: a later Run panics when one of them would go on.
//
// A scheduler records its event trace only after a caller asks for it
// with Record; from then on the trace keeps every record, and a run that
// nobody inspects records nothing.
package rtos

import (
	"fmt"
	"sort"

	"rmtest/internal/sim"
)

// Scheduler is the simulated RTOS kernel. Create one with New, spawn
// tasks, then drive the underlying sim.Kernel.
type Scheduler struct {
	k *sim.Kernel

	tasks   []*Task
	ready   []*Task // ordered: highest priority first, FIFO within a band
	current *Task

	// CPU occupancy: the current task's in-flight compute burst.
	computeDone  sim.Event
	computeStart sim.Time
	lastOnCPU    *Task

	depth       int // releases on the stack
	kickPending bool
	trace       *Trace // nil until Record
	idleFrom    sim.Time
	idleTime    sim.Time
	switches    uint64
	preempts    uint64
	computes    uint64
	queues      map[string]*Queue
	stormISRs   uint64

	// Kernel callbacks bound once in New, so scheduling one allocates
	// nothing.
	kickFn, finishComputeFn func()
}

// New returns a scheduler bound to kernel k.
func New(k *sim.Kernel) *Scheduler {
	s := &Scheduler{k: k, queues: make(map[string]*Queue)}
	s.kickFn, s.finishComputeFn = s.kicked, s.finishCompute
	return s
}

// Kernel returns the underlying simulation kernel.
func (s *Scheduler) Kernel() *sim.Kernel { return s.k }

// Now returns the current virtual time.
func (s *Scheduler) Now() sim.Time { return s.k.Now() }

// Record starts recording the scheduler trace, or returns the trace
// already being recorded. Only events after the first call are
// recorded, so callers that read the trace call Record before the run.
func (s *Scheduler) Record() *Trace {
	if s.trace == nil {
		s.trace = &Trace{}
	}
	return s.trace
}

// ContextSwitches returns the number of task-to-task CPU switches so far.
func (s *Scheduler) ContextSwitches() uint64 { return s.switches }

// Preemptions returns the number of times a running task was preempted.
func (s *Scheduler) Preemptions() uint64 { return s.preempts }

// ComputeRequests returns the number of non-zero Compute calls issued so
// far, whether they completed inline or waited for their burst.
func (s *Scheduler) ComputeRequests() uint64 { return s.computes }

// IdleTime returns the accumulated virtual time during which no task
// occupied the CPU.
func (s *Scheduler) IdleTime() sim.Time {
	if s.current == nil {
		return s.idleTime + (s.k.Now() - s.idleFrom)
	}
	return s.idleTime
}

// Tasks returns all tasks ever spawned, in spawn order.
func (s *Scheduler) Tasks() []*Task { return s.tasks }

// TaskByName returns the task with the given name, or nil when no such
// task has been spawned. Fault injection uses it to address overrun
// targets declared by name.
func (s *Scheduler) TaskByName(name string) *Task {
	for _, t := range s.tasks {
		if t.name == name {
			return t
		}
	}
	return nil
}

// Queue returns the queue created under the given name, or nil when no
// such queue exists. Fault injection uses it to address drop targets
// declared by name.
func (s *Scheduler) Queue(name string) *Queue { return s.queues[name] }

// InjectISRStorm fires a spurious interrupt of the given CPU cost every
// `period` from instant `from` for `duration` — a chattering device or a
// mis-configured peripheral raising interrupts with no work behind them.
// Each interrupt steals CPU from whatever burst is in flight, exactly
// like a real ISR, so the damage lands wherever the pipeline happens to
// be executing.
func (s *Scheduler) InjectISRStorm(from, duration, period, cost sim.Time) {
	if period <= 0 {
		panic(fmt.Sprintf("rtos: InjectISRStorm with non-positive period %v", period))
	}
	to := from + duration
	var tick func()
	tick = func() {
		if s.k.Now() >= to {
			return
		}
		s.stormISRs++
		s.Interrupt(cost)
		s.k.After(period, tick)
	}
	s.k.At(from, tick)
}

// StormISRs counts interrupts fired by injected ISR storms.
func (s *Scheduler) StormISRs() uint64 { return s.stormISRs }

// Spawn creates a task whose body runs once, released at time start
// (which must not be in the past); the task exits when the body returns.
// Higher prio values run first, matching FreeRTOS convention.
func (s *Scheduler) Spawn(name string, prio int, start sim.Time, body func(*Task)) *Task {
	return s.spawn(name, prio, start, 0, body)
}

// SpawnPeriodic creates a task whose body runs once per period, first at
// time offset, using DelayUntil semantics (no drift; overruns are absorbed
// by skipping to the next release that lies in the future). The task
// tracks executed and skipped releases — skipped releases are a direct
// symptom of CPU starvation and feed timing diagnosis.
func (s *Scheduler) SpawnPeriodic(name string, prio int, offset, period sim.Time, body func(*Task)) *Task {
	if period <= 0 {
		panic("rtos: non-positive period")
	}
	return s.spawn(name, prio, offset, period, body)
}

func (s *Scheduler) spawn(name string, prio int, start, period sim.Time, body func(*Task)) *Task {
	if body == nil {
		panic("rtos: Spawn with nil body")
	}
	t := &Task{sched: s, name: name, prio: prio, state: TaskNew, body: body, period: period, next: start}
	t.wakeFn = t.wakeUp
	t.doneFn = func() bool { return s.current == t && t.pendingCompute == 0 }
	s.tasks = append(s.tasks, t)
	s.k.At(start, t.wakeFn)
	return t
}

func (s *Scheduler) cpuComputing() bool {
	return s.computeDone.Pending()
}

// makeReady inserts a released task into the ready list, behind the
// ready tasks of its priority.
func (s *Scheduler) makeReady(t *Task) {
	if t.state == TaskReady || t.state == TaskRunning || t.state == TaskDone {
		panic(fmt.Sprintf("rtos: makeReady(%s) in state %v", t.name, t.state))
	}
	s.enqueue(t, false)
}

// enqueue marks t ready and inserts it into the ready list. front selects
// LIFO insertion within t's priority band (used for preempted tasks,
// which must resume before equal-priority peers).
func (s *Scheduler) enqueue(t *Task, front bool) {
	t.state = TaskReady
	pos := len(s.ready)
	for i, r := range s.ready {
		if front {
			if r.prio <= t.prio {
				pos = i
				break
			}
		} else {
			if r.prio < t.prio {
				pos = i
				break
			}
		}
	}
	s.ready = append(s.ready, nil)
	copy(s.ready[pos+1:], s.ready[pos:])
	s.ready[pos] = t
	s.trace.add(s.k.Now(), TraceReady, t)
}

func (s *Scheduler) topReady() *Task {
	if len(s.ready) == 0 {
		return nil
	}
	return s.ready[0]
}

// kick requests a scheduling pass after all other kernel events at the
// current instant have been processed. Release paths use it instead of
// calling schedLoop directly so that several tasks released at the same
// instant all become ready before any of them is dispatched — matching an
// RTOS tick handler that moves every expired task to the ready list before
// invoking the scheduler.
func (s *Scheduler) kick() {
	if s.kickPending {
		return
	}
	s.kickPending = true
	s.k.After(0, s.kickFn)
}

// kicked runs the scheduling pass kick requested. schedLoop may move the
// clock, so it stays the last call.
func (s *Scheduler) kicked() {
	s.kickPending = false
	s.schedLoop()
}

// schedLoop is the heart of the scheduler. Every kernel event that can
// change task state ends by calling it. It dispatches tasks and runs
// their releases until the CPU is committed to a compute burst or idle,
// or until the current task is a release further down the stack, whose
// waiting Compute goes on with its body when the pass returns. A burst
// that nothing can interrupt completes inline, in the body or here,
// which moves the clock; so schedLoop must stay the last call in both its
// callers, kicked and finishCompute, and no caller code runs after the
// clock has moved.
func (s *Scheduler) schedLoop() {
	for {
		t := s.current
		if t == nil {
			top := s.topReady()
			if top == nil {
				if s.idleFrom < 0 {
					s.idleFrom = s.k.Now()
				}
				return
			}
			s.ready = append(s.ready[:0], s.ready[1:]...) // pop top
			if s.idleFrom >= 0 {
				s.idleTime += s.k.Now() - s.idleFrom
				s.idleFrom = -1
			}
			s.startRunning(top)
			continue
		}
		// A higher-priority ready task preempts, mid-burst or at a
		// burst's end.
		if top := s.topReady(); top != nil && top.prio > t.prio {
			s.preempt()
			continue
		}
		if s.cpuComputing() {
			return
		}
		if t.pendingCompute > 0 {
			// The rest of a preempted burst. Advance succeeds only if no
			// pending event fires at or before its end and Run would
			// reach it, so nothing can preempt, stretch or observe it:
			// the task goes on at its end, as after finishCompute.
			if s.k.Advance(s.k.Now() + t.pendingCompute) {
				t.pendingCompute = 0
				continue
			}
			s.beginCompute(t)
			return
		}
		switch t.frame {
		case onStack:
			return
		case lost:
			panic(fmt.Sprintf("rtos: task %s cannot go on: the run its release was in ended inside it", t.name))
		}
		if !s.release(t) {
			return
		}
	}
}

func (s *Scheduler) startRunning(t *Task) {
	t.state = TaskRunning
	s.current = t
	if s.lastOnCPU != t {
		s.switches++
	}
	s.lastOnCPU = t
	s.trace.add(s.k.Now(), TraceDispatch, t)
}

func (s *Scheduler) beginCompute(t *Task) {
	s.computeStart = s.k.Now()
	s.computeDone = s.k.After(t.pendingCompute, s.finishComputeFn)
}

// finishCompute completes the current task's compute burst. Every path
// that takes a computing task off the CPU cancels its burst first, so
// the burst that completes is the current task's. schedLoop may move the
// clock, so it stays the last call.
func (s *Scheduler) finishCompute() {
	s.current.pendingCompute = 0
	s.computeDone = sim.Event{}
	s.schedLoop()
}

// preempt takes the current task off the CPU, to the front of its
// priority band. A burst in flight is cancelled, and the CPU time it has
// consumed so far is charged.
func (s *Scheduler) preempt() {
	t := s.current
	if s.cpuComputing() {
		t.pendingCompute -= s.k.Now() - s.computeStart
		if t.pendingCompute < 0 {
			t.pendingCompute = 0
		}
		s.computeDone.Cancel()
		s.computeDone = sim.Event{}
	}
	s.enqueue(t, true)
	s.current = nil
	s.preempts++
	s.trace.add(s.k.Now(), TracePreempt, t)
}

// runEnded is the panic with which a waiting Compute unwinds the releases
// on the stack when the run they are in ends (its horizon or Stop). The
// outermost release recovers it.
type runEnded struct{}

// release runs one release of the current task t: it calls the body,
// then, for a periodic task, sleeps until the next release in the future,
// counting the ones skipped, or, for a one-shot task, exits. It reports
// false when the run ended inside the body; the scheduler's state then
// stays as the run left it, and every release that was on the stack is
// lost.
func (s *Scheduler) release(t *Task) (finished bool) {
	if s.depth == 0 {
		defer s.recoverRunEnded()
	}
	s.depth++
	t.frame = onStack
	if t.period > 0 {
		t.releases++
	}
	t.body(t)
	t.frame = noRelease
	s.depth--
	now := s.k.Now()
	s.current = nil
	if t.period == 0 {
		t.state = TaskDone
		s.trace.add(now, TraceExit, t)
		return true
	}
	t.next += t.period
	for t.next <= now {
		t.next += t.period
		t.missedReleases++
	}
	t.state = TaskSleeping
	s.trace.add(now, TraceSleep, t)
	s.k.At(t.next, t.wakeFn)
	return true
}

// recoverRunEnded, deferred by the outermost release, stops the runEnded
// unwind there and marks every release that was on the stack lost. Any
// other panic, such as a body's own, goes on to the caller of Run.
func (s *Scheduler) recoverRunEnded() {
	switch r := recover(); r.(type) {
	case nil:
	case runEnded:
		s.depth = 0
		for _, t := range s.tasks {
			if t.frame == onStack {
				t.frame = lost
			}
		}
	default:
		panic(r)
	}
}

// wakeUp releases t: at its start instant, and after each sleep.
func (t *Task) wakeUp() {
	t.sched.makeReady(t)
	t.sched.kick()
}

// Interrupt models an interrupt service routine that steals the CPU for
// isrCost, pushing out whatever compute burst was in progress, and
// otherwise changes nothing.
func (s *Scheduler) Interrupt(isrCost sim.Time) {
	if isrCost > 0 {
		s.stealCPU(isrCost)
	}
	s.trace.add(s.k.Now(), TraceISR, nil)
	s.kick()
}

// stealCPU pushes out the completion of the in-flight compute burst by
// d, modelling ISR time stolen from the running task. When the CPU is
// idle the ISR absorbs into idle time.
func (s *Scheduler) stealCPU(d sim.Time) {
	if !s.cpuComputing() {
		return
	}
	remaining := s.computeDone.At() - s.k.Now()
	s.computeDone.Cancel()
	s.computeStart += d
	s.computeDone = s.k.After(d+remaining, s.finishComputeFn)
}

// Utilization returns the fraction of elapsed virtual time the CPU was
// busy, in [0,1]. It is 0 before any time has elapsed.
func (s *Scheduler) Utilization() float64 {
	el := s.k.Now()
	if el <= 0 {
		return 0
	}
	return 1 - float64(s.IdleTime())/float64(el)
}

// ReadySnapshot returns the names of ready tasks, highest priority first.
// Intended for tests and debug output.
func (s *Scheduler) ReadySnapshot() []string {
	names := make([]string, len(s.ready))
	for i, t := range s.ready {
		names[i] = t.name
	}
	return names
}

// TasksByName returns tasks sorted by name; handy for stable debug output.
func (s *Scheduler) TasksByName() []*Task {
	out := append([]*Task(nil), s.tasks...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
