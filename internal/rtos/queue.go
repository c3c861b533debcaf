package rtos

import (
	"rmtest/internal/sim"
)

// Queue is a FIFO message queue in the style of a FreeRTOS queue: bounded
// capacity, blocking send/receive with optional timeout, and
// priority-ordered wakeup (the highest-priority waiter is released first;
// equal priorities release in arrival order).
//
// The implementation schemes in the paper's case study (§IV) use these
// queues to connect sensing, CODE(M) and actuation threads, so the
// queueing delay they introduce is one of the delay segments M-testing
// must expose.
type Queue struct {
	sched *Scheduler
	name  string
	cap   int // <= 0 means unbounded
	items []any

	sendWait []*sendWaiter
	recvWait []*Task

	// Statistics, readable at any time.
	maxDepth  int
	enqueued  uint64
	dropped   uint64
	enqAt     []sim.Time // enqueue instant per buffered item
	totalWait sim.Time
	waitCount uint64

	// In-transit-loss fault: while the window is active every
	// dropEvery-th send vanishes between sender and queue. The sender
	// observes success — corrupted frames on a bus are invisible to the
	// producer — so the loss surfaces only downstream, as a consumer
	// that never receives the value.
	dropFrom     sim.Time
	dropTo       sim.Time
	dropEvery    int
	dropCount    uint64
	faultDropped uint64
}

type sendWaiter struct {
	task *Task
	val  any
}

// NewQueue creates a queue with the given capacity; capacity <= 0 means
// unbounded. The queue is registered under its name for by-name lookup
// (Scheduler.Queue); a later queue with the same name shadows the
// earlier registration.
func (s *Scheduler) NewQueue(name string, capacity int) *Queue {
	q := &Queue{sched: s, name: name, cap: capacity}
	s.queues[name] = q
	return q
}

// Name returns the queue's name.
func (q *Queue) Name() string { return q.name }

// Len returns the number of buffered items.
func (q *Queue) Len() int { return len(q.items) }

// Cap returns the queue capacity (0 means unbounded).
func (q *Queue) Cap() int { return q.cap }

// MaxDepth returns the high-water mark of buffered items.
func (q *Queue) MaxDepth() int { return q.maxDepth }

// Enqueued returns the number of values successfully enqueued.
func (q *Queue) Enqueued() uint64 { return q.enqueued }

// Dropped returns the number of values rejected because the queue was full
// (SendFromISR or zero-timeout sends).
func (q *Queue) Dropped() uint64 { return q.dropped }

// MeanWait returns the average time values spent buffered before being
// received. It is zero when nothing has been received yet.
func (q *Queue) MeanWait() sim.Time {
	if q.waitCount == 0 {
		return 0
	}
	return q.totalWait / sim.Time(q.waitCount)
}

// InjectDrop arms the in-transit-loss fault: from instant `from` for
// `duration`, every `every`-th value sent to the queue (counting from
// the window's first send) is silently lost. every <= 1 loses every
// send. Both the task-context send path and SendFromISR are affected;
// blocked sends that deliver on wakeup are not (the value is already
// inside the kernel by then).
func (q *Queue) InjectDrop(from, duration sim.Time, every int) {
	q.dropFrom = from
	q.dropTo = from + duration
	if every < 1 {
		every = 1
	}
	q.dropEvery = every
	q.dropCount = 0
}

// FaultDropped counts values lost to the injected in-transit fault.
// They are not included in Dropped, which counts capacity rejections
// the sender observed.
func (q *Queue) FaultDropped() uint64 { return q.faultDropped }

// faultDrop reports whether a send happening now is lost to the
// injected fault, advancing the every-th counter.
func (q *Queue) faultDrop(now sim.Time) bool {
	if q.dropTo <= q.dropFrom || now < q.dropFrom || now >= q.dropTo {
		return false
	}
	q.dropCount++
	return q.dropCount%uint64(q.dropEvery) == 0
}

func (q *Queue) full() bool { return q.cap > 0 && len(q.items) >= q.cap }

func (q *Queue) push(v any) {
	q.items = append(q.items, v)
	q.enqAt = append(q.enqAt, q.sched.k.Now())
	q.enqueued++
	if len(q.items) > q.maxDepth {
		q.maxDepth = len(q.items)
	}
}

func (q *Queue) pop() any {
	v := q.items[0]
	q.items = q.items[1:]
	q.totalWait += q.sched.k.Now() - q.enqAt[0]
	q.enqAt = q.enqAt[1:]
	q.waitCount++
	return v
}

// insertByPrio inserts t into waiters keeping highest priority first and
// FIFO order within a priority band.
func insertByPrio(waiters []*Task, t *Task) []*Task {
	pos := len(waiters)
	for i, w := range waiters {
		if w.prio < t.prio {
			pos = i
			break
		}
	}
	waiters = append(waiters, nil)
	copy(waiters[pos+1:], waiters[pos:])
	waiters[pos] = t
	return waiters
}

func removeTask(waiters []*Task, t *Task) []*Task {
	for i, w := range waiters {
		if w == t {
			return append(waiters[:i], waiters[i+1:]...)
		}
	}
	return waiters
}

// send implements the task-context send path; called by the scheduler with
// t == s.current.
func (q *Queue) send(t *Task, v any, timeout sim.Time, hasTimeout bool) {
	if q.faultDrop(q.sched.k.Now()) {
		q.faultDropped++
		t.blockOK = true // the sender saw a successful send
		return
	}
	if !q.full() {
		q.deliver(v)
		t.blockOK = true
		return
	}
	if hasTimeout && timeout <= 0 {
		t.blockOK = false
		q.dropped++
		return
	}
	w := &sendWaiter{task: t, val: v}
	pos := len(q.sendWait)
	for i, sw := range q.sendWait {
		if sw.task.prio < t.prio {
			pos = i
			break
		}
	}
	q.sendWait = append(q.sendWait, nil)
	copy(q.sendWait[pos+1:], q.sendWait[pos:])
	q.sendWait[pos] = w
	q.sched.blockCurrentOn(q.name)
	if hasTimeout {
		s := q.sched
		t.wakeEv = s.k.After(timeout, func() {
			t.wakeEv = sim.Event{}
			q.removeSendWaiter(w)
			q.dropped++
			t.blockOK = false
			s.makeReady(t, false)
			s.kick()
		})
	}
}

func (q *Queue) removeSendWaiter(w *sendWaiter) {
	for i, sw := range q.sendWait {
		if sw == w {
			q.sendWait = append(q.sendWait[:i], q.sendWait[i+1:]...)
			return
		}
	}
}

// deliver places v into the queue, or hands it directly to the
// highest-priority receive waiter if one exists.
func (q *Queue) deliver(v any) {
	if len(q.recvWait) > 0 {
		w := q.recvWait[0]
		q.recvWait = q.recvWait[1:]
		q.enqueued++
		w.blockVal = v
		w.blockOK = true
		q.sched.wake(w)
		return
	}
	q.push(v)
}

// recv implements the task-context receive path.
func (q *Queue) recv(t *Task, timeout sim.Time, hasTimeout bool) {
	if len(q.items) > 0 {
		t.blockVal = q.pop()
		t.blockOK = true
		// Release one blocked sender into the freed slot.
		if len(q.sendWait) > 0 && !q.full() {
			w := q.sendWait[0]
			q.sendWait = q.sendWait[1:]
			q.push(w.val)
			w.task.blockOK = true
			q.sched.wake(w.task)
		}
		return
	}
	if hasTimeout && timeout <= 0 {
		t.blockOK = false
		t.blockVal = nil
		return
	}
	q.recvWait = insertByPrio(q.recvWait, t)
	q.sched.blockCurrentOn(q.name)
	if hasTimeout {
		s := q.sched
		t.wakeEv = s.k.After(timeout, func() {
			t.wakeEv = sim.Event{}
			q.recvWait = removeTask(q.recvWait, t)
			t.blockOK = false
			t.blockVal = nil
			s.makeReady(t, false)
			s.kick()
		})
	}
}

// SendFromISR enqueues v from interrupt (kernel) context without blocking.
// It reports whether the value was accepted; a full queue drops the value,
// as a FreeRTOS xQueueSendFromISR would fail. It must not be called from a
// task body.
func (q *Queue) SendFromISR(v any) bool {
	if q.faultDrop(q.sched.k.Now()) {
		q.faultDropped++
		q.sched.kick()
		return true // the ISR saw a successful post
	}
	if q.full() {
		q.dropped++
		return false
	}
	q.deliver(v)
	q.sched.kick()
	return true
}
