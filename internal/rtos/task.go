package rtos

import (
	"fmt"

	"rmtest/internal/sim"
)

// TaskState is the lifecycle state of a task.
type TaskState int

// Task lifecycle states.
const (
	TaskNew      TaskState = iota // spawned, not yet released
	TaskReady                     // runnable, waiting for the CPU
	TaskRunning                   // on the CPU
	TaskSleeping                  // waiting for its next release
	TaskDone                      // one-shot body returned
)

func (st TaskState) String() string {
	switch st {
	case TaskNew:
		return "new"
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskSleeping:
		return "sleeping"
	case TaskDone:
		return "done"
	}
	return fmt.Sprintf("TaskState(%d)", int(st))
}

// frame is where a task's current release stands.
type frame uint8

const (
	noRelease frame = iota // between releases
	onStack                // the body runs on the scheduler's stack
	lost                   // a run ended inside the body, and its frames are gone
)

// Task is a simulated RTOS task. Its methods may only be called from
// inside the task's own body function; calling them from outside the
// simulation is a programming error.
type Task struct {
	sched *Scheduler
	name  string
	prio  int
	state TaskState

	body   func(*Task)
	period sim.Time // for periodic tasks; 0 otherwise
	next   sim.Time // the instant of the current or next release
	frame  frame

	pendingCompute sim.Time

	// Bound once at spawn, so releasing and waiting allocate nothing:
	// wakeFn releases the task, and doneFn tells a waiting Compute that
	// the task is back on the CPU with its burst done.
	wakeFn func()
	doneFn func() bool

	// Accounting.
	cpuTime        sim.Time
	releases       uint64
	missedReleases uint64

	// WCET-overrun fault: compute bursts issued inside the window are
	// scaled by ovNum/ovDen (applied by Compute at the issue instant).
	ovFrom sim.Time
	ovTo   sim.Time
	ovNum  int64
	ovDen  int64
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// Priority returns the task's priority.
func (t *Task) Priority() int { return t.prio }

// State returns the task's lifecycle state.
func (t *Task) State() TaskState { return t.state }

// CPUTime returns the total virtual CPU time this task has asked for via
// Compute. A burst counts whole from the instant it is issued, so a run
// that ends inside a burst counts all of it.
func (t *Task) CPUTime() sim.Time { return t.cpuTime }

// CPUUsed returns the virtual CPU time this task has run: CPUTime less
// the part of its current burst still to execute.
func (t *Task) CPUUsed() sim.Time {
	left := t.pendingCompute
	if s := t.sched; s.current == t && s.cpuComputing() {
		left -= s.k.Now() - s.computeStart
	}
	return t.cpuTime - left
}

// Period returns the period of a periodic task (zero for plain tasks).
func (t *Task) Period() sim.Time { return t.period }

// Releases returns how many periodic releases have executed.
func (t *Task) Releases() uint64 { return t.releases }

// MissedReleases returns how many periodic releases were skipped because
// the previous instance overran (a symptom of CPU starvation).
func (t *Task) MissedReleases() uint64 { return t.missedReleases }

// InjectOverrun scales every compute burst the task issues from instant
// `from` for `duration` by num/den — an execution-time excursion: a cache
// storm, a degraded flash wait-state, a pathological input to CODE(M).
// num/den > 1 stretches bursts (WCET overrun); fractions below 1 model a
// task running unexpectedly fast. The scaling applies at burst issue
// time, so a burst started inside the window keeps its stretched length
// even if it completes after the window closes.
func (t *Task) InjectOverrun(from, duration sim.Time, num, den int64) {
	if num <= 0 || den <= 0 {
		panic(fmt.Sprintf("rtos: InjectOverrun with non-positive scale %d/%d", num, den))
	}
	t.ovFrom = from
	t.ovTo = from + duration
	t.ovNum = num
	t.ovDen = den
}

// Coalescible reports whether Compute charges that the task issues back
// to back, with no reading of the clock between them, may be issued as
// one burst of their sum without changing the schedule. A preemption
// lands at the same instant whether it splits one burst or falls between
// two, so only an InjectOverrun window that is armed and not yet over can
// see where a burst ends: it scales each burst by its issue instant.
// While it holds, charges must be issued one by one.
func (t *Task) Coalescible() bool {
	return t.ovTo <= t.ovFrom || t.Now() >= t.ovTo
}

// overrun returns the effective duration of a compute burst issued now.
func (t *Task) overrun(now, d sim.Time) sim.Time {
	if t.ovTo <= t.ovFrom || now < t.ovFrom || now >= t.ovTo {
		return d
	}
	return sim.Time(int64(d) * t.ovNum / t.ovDen)
}

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.sched.k.Now() }

// Compute consumes d of CPU time. The burst is preemptible: a
// higher-priority task that becomes ready in the middle takes the CPU and
// the remainder of the burst continues later. Compute(0) is a no-op.
//
// A burst that ends before the next pending kernel event completes at
// once (sim.Kernel.Advance). A task that outranks this one becomes ready
// only in a kernel event, which also queues a scheduling pass now (kick),
// so while a preemption is due Advance refuses: no priority check is
// needed. Any other burst, and every burst under RunUntilIdle, starts on
// the CPU, and Compute fires the run's kernel events itself
// (sim.Kernel.RunUntil) until the task is back on the CPU with the burst
// done; a release that preempts the task runs inside that call. When the
// run ends first, Compute unwinds the releases on the stack, and the
// outermost one returns into the run. Compute panics when it must wait
// outside Run and RunUntilIdle.
func (t *Task) Compute(d sim.Time) {
	if d < 0 {
		panic("rtos: negative compute duration")
	}
	if d == 0 {
		return
	}
	s := t.sched
	now := s.k.Now()
	d = t.overrun(now, d)
	t.cpuTime += d
	t.pendingCompute = d
	s.computes++
	if s.k.Advance(now + d) {
		t.pendingCompute = 0
		return
	}
	s.beginCompute(t)
	if !s.k.RunUntil(t.doneFn) {
		panic(runEnded{})
	}
}
