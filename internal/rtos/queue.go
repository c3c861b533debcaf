package rtos

import (
	"rmtest/internal/sim"
)

// Queue is a FIFO message queue in the style of a FreeRTOS queue with
// bounded capacity, used through zero-timeout calls only: TrySend
// rejects a value when the queue is full and TryRecv reports an empty
// queue, so no task ever waits on a queue. Both are plain calls, not
// kernel requests, and may be made from a task body or a kernel
// callback; neither changes which task runs.
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

	// Statistics, readable at any time.
	maxDepth int
	enqueued uint64
	dropped  uint64

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

// Dropped returns the number of values TrySend rejected because the
// queue was full.
func (q *Queue) Dropped() uint64 { return q.dropped }

// InjectDrop arms the in-transit-loss fault: from instant `from` for
// `duration`, every `every`-th value sent to the queue (counting from
// the window's first send) is silently lost. every <= 1 loses every
// send.
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

// TrySend enqueues v and reports whether there was room. A value lost
// to the injected in-transit fault reports success.
func (q *Queue) TrySend(v any) bool {
	if q.faultDrop(q.sched.k.Now()) {
		q.faultDropped++
		return true
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		q.dropped++
		return false
	}
	q.items = append(q.items, v)
	q.enqueued++
	if len(q.items) > q.maxDepth {
		q.maxDepth = len(q.items)
	}
	return true
}

// TryRecv dequeues the oldest value; ok is false when the queue is
// empty.
func (q *Queue) TryRecv() (v any, ok bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}
