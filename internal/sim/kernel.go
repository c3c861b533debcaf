// Package sim provides the discrete-event simulation kernel that every
// other substrate in this repository runs on.
//
// The kernel owns a virtual clock (nanoseconds since simulation start,
// represented as time.Duration) and an ordered queue of timed events.
// Events scheduled for the same instant fire in the order they were
// scheduled, which makes every simulation in this repository fully
// deterministic: the same program produces the same trace, bit for bit.
//
// The event queue has two tiers, both ordered by (instant, schedule
// sequence). The next events wait in a short run, a slice of at most
// runCap nodes sorted latest first, so the next event is its last
// element: a new event is inserted by shifting the events it passes,
// counting from the next one, and the next event is taken off the end.
// Events after every event in the run wait in a hand-specialized 4-ary
// min-heap over a flat []*node slice, which is touched only when the
// run is empty, when a new event comes after the heap's first event, or
// when a full run spills its latest event. Simulations keep a dozen or
// so events pending and schedule most of them close to the next one,
// so the run serves nearly every event; the heap keeps a long schedule
// made up front from costing a walk of the whole run per insertion.
// Fired and cancelled events return to a free list and are recycled by
// later At/After calls, so the steady-state schedule/fire cycle
// allocates nothing. Pool safety rests on a per-node generation
// counter: an Event handle captures the node's generation at schedule
// time, and Cancel/Pending on a handle whose generation no longer
// matches (the node has been fired or recycled since) are no-ops. See
// DESIGN.md ("Kernel event queue and pool") for the determinism
// invariants this structure must preserve.
//
// Run may also move the clock without firing anything: Advance jumps to
// an instant before the next pending event when nothing can happen in
// between, which is how internal/rtos completes a compute burst that
// nothing can interrupt without scheduling its end as an event. An event
// callback may also go on with the run from where it stands: RunUntil
// fires the run's next events, nested inside the callback, until a
// condition holds, which is how a task body in internal/rtos waits for a
// burst that something could interrupt.
//
// The kernel is intentionally single-threaded: at any moment exactly one
// piece of simulation logic is executing, on the goroutine that called
// Run.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual-time instant measured from the start of the simulation.
// It is an alias of time.Duration so that callers can use the ordinary
// duration literals (25 * time.Millisecond) for both instants and spans.
type Time = time.Duration

// node is the kernel-internal, pooled representation of one scheduled
// callback. Nodes are owned by the kernel: they move between the run,
// the heap and the free list and are never reachable by callers except
// through generation-checked Event handles.
type node struct {
	at     Time
	seq    uint64
	fn     func()
	gen    uint64 // bumped every time the node is released to the pool
	index  int    // heap index, inRun or released
	kernel *Kernel
}

// A node's index is its slot in the heap, or one of these.
const (
	released = -1 // on the free list
	inRun    = -2 // in the run, whose slots shift on every insertion
)

// Event is a by-value handle to a scheduled callback, created by
// Kernel.At / Kernel.After. The zero value is an inert handle: Pending
// reports false and Cancel is a no-op. Handles stay safe after the
// event fires or is cancelled — the underlying pooled storage may be
// recycled for a later event, but the handle's captured generation no
// longer matches, so a stale Cancel can never hit the new occupant.
type Event struct {
	n   *node
	gen uint64
	at  Time
}

// At reports the virtual instant the event is scheduled to fire at.
func (e Event) At() Time { return e.at }

// Pending reports whether the event is still waiting to fire.
func (e Event) Pending() bool {
	return e.n != nil && e.n.gen == e.gen && e.n.index != released
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled, or whose storage was recycled for a
// later event) is a no-op. Cancel reports whether the event was still
// pending.
func (e Event) Cancel() bool {
	n := e.n
	if n == nil || n.gen != e.gen || n.index == released {
		return false
	}
	k := n.kernel
	k.removes++
	if n.index == inRun {
		k.runRemove(n)
	} else {
		k.heapRemove(n.index)
	}
	k.release(n)
	return true
}

// MaxSameInstant bounds how many events may fire at one virtual instant
// before the kernel declares a zero-time livelock. Well-formed models
// fire at most a handful of events per instant; an unbounded chain means
// some process loops without consuming virtual time, which would
// otherwise hang the simulation silently.
const MaxSameInstant = 1 << 20

// runCap bounds the run. The simulations in this repository keep at most
// a few dozen events pending, so the heap serves only long schedules
// made up front.
const runCap = 64

// Kernel is the discrete-event simulator. The zero value is ready to use.
type Kernel struct {
	now Time
	// The pending events: run holds at most runCap of them sorted by
	// (at, seq), latest first, so the next event is its last element;
	// heap is a 4-ary min-heap by (at, seq) of events that come after
	// every event in run.
	run       []*node
	heap      []*node
	free      []*node // recycled nodes
	seq       uint64
	stopped   bool
	fired     uint64
	atInstant int

	// running and horizon describe the Run or RunUntilIdle call in
	// progress, which RunUntil continues. advance is set only under Run:
	// Advance moves the clock only then, and never past horizon.
	running, advance bool
	horizon          Time

	// Queue-operation counters; regression tests pin the fused run loop to
	// exactly one pop per fired event (see TestRunHeapOpsPerFiredEvent).
	pushes  uint64
	pops    uint64
	removes uint64
}

// New returns a fresh kernel with the clock at zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsFired returns the number of events executed so far. It is useful in
// tests and benchmarks as a cheap measure of simulation activity.
func (k *Kernel) EventsFired() uint64 { return k.fired }

// Pending returns the number of events currently scheduled.
func (k *Kernel) Pending() int { return len(k.run) + len(k.heap) }

// QueueOps returns cumulative queue-operation counts: pushes (At/After),
// pops (events leaving the queue to fire, from the run or the heap) and
// removes (targeted extraction by Cancel). A full run spilling its
// latest event into the heap counts as none of them. The fused run loop
// guarantees pops never exceeds EventsFired plus the events popped by
// Step outside Run.
func (k *Kernel) QueueOps() (pushes, pops, removes uint64) {
	return k.pushes, k.pops, k.removes
}

// Reset returns the kernel to its initial state — clock at zero, no
// pending events — while retaining the node pool and heap capacity, so
// a reset kernel schedules without allocating. It is the campaign
// engine's per-worker scratch hook: back-to-back runs on one reset
// kernel execute identically to runs on fresh kernels, because every
// ordering input (clock, sequence counter) restarts from zero.
func (k *Kernel) Reset() {
	for _, n := range k.run {
		k.release(n)
	}
	for _, n := range k.heap {
		k.release(n)
	}
	k.run, k.heap = k.run[:0], k.heap[:0]
	k.now = 0
	k.seq = 0
	k.stopped = false
	k.fired = 0
	k.atInstant = 0
	k.running, k.advance, k.horizon = false, false, 0
	k.pushes, k.pops, k.removes = 0, 0, 0
}

// alloc takes a node from the free list, or grows the pool.
func (k *Kernel) alloc() *node {
	if n := len(k.free); n > 0 {
		nd := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return nd
	}
	return &node{kernel: k}
}

// release returns a node to the free list, invalidating every
// outstanding handle by bumping the generation.
func (k *Kernel) release(n *node) {
	n.gen++
	n.fn = nil
	n.index = released
	k.free = append(k.free, n)
}

// At schedules fn to run at the absolute virtual instant t. Scheduling in
// the past (t < Now) panics: in a deterministic simulator that is always a
// logic error, and silently clamping it would hide real bugs.
func (k *Kernel) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: at=%v now=%v", t, k.now))
	}
	n := k.alloc()
	n.at = t
	n.seq = k.seq
	n.fn = fn
	k.seq++
	k.pushes++
	// n has the latest sequence number, so it comes after a pending event
	// exactly when that event's instant is at or before t.
	r := k.run
	if len(k.heap) > 0 && k.heap[0].at <= t || len(r) == runCap && r[0].at <= t {
		k.heapPush(n)
	} else {
		if len(r) == runCap {
			// The run's latest event comes before every event in the
			// heap, so it becomes the heap's root.
			k.heapPush(r[0])
			copy(r, r[1:])
			r = r[:runCap-1]
		}
		r = append(r, n)
		i := len(r) - 1
		for ; i > 0 && r[i-1].at <= t; i-- {
			r[i] = r[i-1]
		}
		r[i] = n
		n.index = inRun
		k.run = r
	}
	return Event{n: n, gen: n.gen, at: t}
}

// After schedules fn to run d after the current instant.
func (k *Kernel) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// next returns the event that fires next, or nil when none is pending:
// the run's last event, or the heap's root when the run is empty.
func (k *Kernel) next() *node {
	if i := len(k.run) - 1; i >= 0 {
		return k.run[i]
	}
	if len(k.heap) > 0 {
		return k.heap[0]
	}
	return nil
}

// fire takes the next event off the queue, advances the clock to its
// instant and runs its callback; an event must be pending. The node is
// released to the pool before the callback runs, so a callback that
// schedules a new event (the Ticker re-arm path) reuses the very node
// that just fired.
func (k *Kernel) fire() {
	k.pops++
	var n *node
	if i := len(k.run) - 1; i >= 0 {
		n = k.run[i]
		k.run[i] = nil
		k.run = k.run[:i]
	} else {
		n = k.heapPop()
	}
	if n.at == k.now {
		k.atInstant++
		if k.atInstant > MaxSameInstant {
			panic(fmt.Sprintf("sim: zero-time livelock: more than %d events at t=%v", MaxSameInstant, k.now))
		}
	} else {
		k.atInstant = 0
	}
	k.now = n.at
	k.fired++
	fn := n.fn
	k.release(n)
	fn()
}

// Step fires the single next event, advancing the clock to its instant.
// It reports false when the queue is empty.
func (k *Kernel) Step() bool {
	if k.next() == nil {
		return false
	}
	k.fire()
	return true
}

// Stop makes the current Run call return after the event in progress
// completes. It may be called from inside an event callback.
func (k *Kernel) Stop() { k.stopped = true }

// Run fires events until the queue is empty, Stop is called, or the next
// event lies strictly beyond horizon. The clock never exceeds horizon: if
// the queue drains (or Run stops at a later event) the clock is advanced to
// exactly horizon, so back-to-back Run calls see monotone time.
//
// The loop is a single fused pop path: the horizon check reads the next
// event in place (cancelled events are removed eagerly by Cancel, so it
// is always live) and each fired event costs exactly one pop.
func (k *Kernel) Run(horizon Time) {
	if horizon < k.now {
		panic(fmt.Sprintf("sim: Run horizon %v before now %v", horizon, k.now))
	}
	k.stopped = false
	k.running, k.advance, k.horizon = true, true, horizon
	defer func() { k.running, k.advance = false, false }()
	for k.goesOn() {
		k.fire()
	}
	if !k.stopped && k.now < horizon {
		k.now = horizon
	}
}

// goesOn reports whether the run in progress fires another event: Stop
// has not been called, and the next event lies at or before the horizon.
func (k *Kernel) goesOn() bool {
	n := k.next()
	return !k.stopped && n != nil && n.at <= k.horizon
}

// RunUntil goes on with the Run or RunUntilIdle in progress from inside
// one of its event callbacks: it fires events exactly as that run would,
// with its horizon, its Stop and its same-instant count, and reports
// true as soon as done holds after an event. It reports false when the
// run would end first; the caller must then return into the run, which
// ends at once. A callback fired by RunUntil may call RunUntil again, so
// the calls nest. It panics outside Run and RunUntilIdle.
func (k *Kernel) RunUntil(done func() bool) bool {
	if !k.running {
		panic("sim: RunUntil outside Run or RunUntilIdle")
	}
	for k.goesOn() {
		k.fire()
		if done() {
			return true
		}
	}
	return false
}

// Advance moves the clock forward to t without firing anything, as Run
// would on reaching t with no event in between. It does so only when all
// of these hold: Run is in progress, t is at or before Run's horizon, no
// pending event fires at or before t, and Stop has not been called.
// Otherwise it changes nothing and reports false.
//
// It is exact: Run would fire nothing before t, and the conditions that
// would end Run before reaching t are exactly the ones checked, so the
// caller may go on at t as if an event scheduled now for t had just
// fired. Advance takes no sequence number and fires no event, so the
// events scheduled later keep their order. Step fires exactly one event
// and RunUntilIdle fires every event, so neither lets the clock advance.
func (k *Kernel) Advance(t Time) bool {
	if !k.advance || k.stopped || t < k.now || t > k.horizon {
		return false
	}
	if n := k.next(); n != nil && n.at <= t {
		return false
	}
	if t > k.now {
		k.now = t
		k.atInstant = 0
	}
	return true
}

// endless is the horizon of RunUntilIdle, which has none.
const endless = Time(1<<63 - 1)

// RunUntilIdle fires events until none remain or Stop is called. Callers
// must guarantee the event graph terminates (e.g. no self-rearming periodic
// timer), otherwise this loops forever; prefer Run with a horizon. Like
// Run, it is a run that RunUntil may continue, with no horizon; unlike
// Run, it fires every event, so Advance never moves the clock under it.
func (k *Kernel) RunUntilIdle() {
	k.stopped = false
	k.running, k.horizon = true, endless
	defer func() { k.running = false }()
	for k.goesOn() {
		k.fire()
	}
}

// runRemove extracts n from the run (the Cancel path), scanning from the
// next event, near which the cancelled events (burst ends, watchdogs)
// usually wait.
func (k *Kernel) runRemove(n *node) {
	r := k.run
	i := len(r) - 1
	for r[i] != n {
		i--
	}
	copy(r[i:], r[i+1:])
	r[len(r)-1] = nil
	k.run = r[:len(r)-1]
}

// --- 4-ary min-heap ---------------------------------------------------

// heapArity is the heap's branching factor. Four halves the tree depth of
// a binary heap; the extra comparisons per level stay on one node's
// children, which the prefetcher handles well.
const heapArity = 4

// less orders nodes by instant, breaking ties by schedule order so
// same-instant events fire FIFO.
func less(a, b *node) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapPush appends n and restores the heap property.
func (k *Kernel) heapPush(n *node) {
	k.heap = append(k.heap, n)
	k.siftUp(len(k.heap)-1, n)
}

// heapPop removes and returns the minimum node.
func (k *Kernel) heapPop() *node {
	q := k.heap
	root := q[0]
	last := len(q) - 1
	moved := q[last]
	q[last] = nil
	k.heap = q[:last]
	if last > 0 {
		k.siftDown(0, moved)
	}
	return root
}

// heapRemove extracts the node at index i (the Cancel path).
func (k *Kernel) heapRemove(i int) {
	q := k.heap
	last := len(q) - 1
	moved := q[last]
	q[last] = nil
	k.heap = q[:last]
	if i < last {
		k.siftDown(i, moved)
		if moved.index == i {
			k.siftUp(i, moved)
		}
	}
}

// siftUp places n, currently destined for slot i, at its final position
// towards the root. The slot contents are shifted lazily: n is written
// exactly once.
func (k *Kernel) siftUp(i int, n *node) {
	q := k.heap
	for i > 0 {
		p := (i - 1) / heapArity
		pn := q[p]
		if !less(n, pn) {
			break
		}
		q[i] = pn
		pn.index = i
		i = p
	}
	q[i] = n
	n.index = i
}

// siftDown places n, currently destined for slot i, at its final position
// towards the leaves.
func (k *Kernel) siftDown(i int, n *node) {
	q := k.heap
	size := len(q)
	for {
		first := heapArity*i + 1
		if first >= size {
			break
		}
		best := first
		bn := q[first]
		end := first + heapArity
		if end > size {
			end = size
		}
		for c := first + 1; c < end; c++ {
			if cn := q[c]; less(cn, bn) {
				best, bn = c, cn
			}
		}
		if !less(bn, n) {
			break
		}
		q[i] = bn
		bn.index = i
		i = best
	}
	q[i] = n
	n.index = i
}

// --- Periodic ---------------------------------------------------------

// Periodic schedules fn every period, first at start, until the returned
// Ticker is stopped. fn receives the tick index, starting at 0.
func (k *Kernel) Periodic(start, period Time, fn func(n uint64)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	t := &Ticker{kernel: k, period: period, fn: fn}
	// The re-arm closure is created once; every subsequent tick reuses it
	// (and, through the pool, the event node it just fired from), so a
	// long-running ticker's steady state allocates nothing.
	t.fireFn = t.fire
	t.ev = k.At(start, t.fireFn)
	return t
}

// Ticker is a self-rearming periodic event created by Kernel.Periodic.
type Ticker struct {
	kernel  *Kernel
	period  Time
	fn      func(uint64)
	fireFn  func()
	n       uint64
	ev      Event
	stopped bool
	drift   int64 // parts-per-million skew applied to each re-arm period
}

// SetDrift skews the ticker's effective period by ppm parts per million
// (DriftedPeriod): positive values slow the clock down (each period
// stretches), negative values speed it up. The skew applies to re-arms
// performed after the call, so a fault window can be realised by setting
// and later clearing the drift at its edges.
func (t *Ticker) SetDrift(ppm int64) { t.drift = ppm }

// DriftedPeriod is period under a clock skew of ppm parts per million:
// period stretched by period*ppm/1e6, truncated toward zero, and clamped
// to at least one nanosecond so a ticker can never re-arm at its own
// instant. The product is split at whole millions of nanoseconds, so a
// long period does not overflow int64.
func DriftedPeriod(period Time, ppm int64) Time {
	if ppm == 0 {
		return period
	}
	n := int64(period)
	p := period + Time(n/1e6*ppm+n%1e6*ppm/1e6)
	if p < 1 {
		p = 1
	}
	return p
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	n := t.n
	t.n++
	// Re-arm before running the callback so the callback can Stop the
	// ticker and observe Pending()==false afterwards. The fired node was
	// just released, so this After recycles it in place.
	t.ev = t.kernel.After(DriftedPeriod(t.period, t.drift), t.fireFn)
	t.fn(n)
}

// Stop cancels all future ticks.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.ev.Cancel()
}

// Ticks returns how many times the ticker has fired.
func (t *Ticker) Ticks() uint64 { return t.n }
