package sim

// FuzzKernelQueue checks the two-tier event queue (the run and the heap)
// against a reference that keeps its events in one slice sorted by
// (at, seq): whatever the mix of schedules, cancels, steps, runs and
// callbacks that schedule or cancel more events, both fire the same
// events in the same order.

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// act is what an event's callback does when it fires, on either queue:
// cancel a handle, then schedule a follow-up event after a delay, as a
// burst end cancels a watchdog and a ticker re-arms.
type act struct {
	cancel int  // id of the handle to cancel, or -1
	after  Time // delay of the follow-up event
	repeat int  // follow-ups left in the chain; 0 schedules none
}

// logEntry is one thing a queue did: an event fired, or a callback's
// Cancel returned ok.
type logEntry struct {
	fired bool
	id    int
	at    Time
	ok    bool
}

// refEvent is one event pending in the reference queue.
type refEvent struct {
	at  Time
	id  int
	act act
}

// refQueue is the reference: one slice sorted by (at, id), where an
// event's id is its schedule order, so the slice's first event is next.
type refQueue struct {
	now    Time
	fired  uint64
	ids    int
	events []refEvent
	log    []logEntry
}

func (q *refQueue) at(t Time, a act) {
	// After every event at or before t: those were scheduled earlier.
	i := sort.Search(len(q.events), func(j int) bool { return q.events[j].at > t })
	q.events = slices.Insert(q.events, i, refEvent{at: t, id: q.ids, act: a})
	q.ids++
}

func (q *refQueue) find(id int) int {
	return slices.IndexFunc(q.events, func(e refEvent) bool { return e.id == id })
}

func (q *refQueue) cancel(id int) bool {
	i := q.find(id)
	if i >= 0 {
		q.events = slices.Delete(q.events, i, i+1)
	}
	return i >= 0
}

func (q *refQueue) step() bool {
	if len(q.events) == 0 {
		return false
	}
	e := q.events[0]
	q.events = slices.Delete(q.events, 0, 1)
	q.now = e.at
	q.fired++
	q.log = append(q.log, logEntry{fired: true, id: e.id, at: e.at})
	if c := e.act.cancel; c >= 0 && c < q.ids {
		q.log = append(q.log, logEntry{id: c, at: q.now, ok: q.cancel(c)})
	}
	if e.act.repeat > 0 {
		q.at(q.now+e.act.after, act{cancel: -1, after: e.act.after, repeat: e.act.repeat - 1})
	}
	return true
}

func (q *refQueue) run(horizon Time) {
	for len(q.events) > 0 && q.events[0].at <= horizon {
		q.step()
	}
	if q.now < horizon {
		q.now = horizon
	}
}

// queuePaths counts the two-tier queue's paths that a sequence of
// operations took.
type queuePaths struct {
	spills      int // a full run spilled its latest event into the heap
	heapPops    int // an event fired from the heap, the run being empty
	runCancels  int // Cancel removed an event from the run
	heapCancels int // Cancel removed an event from the heap
	maxPending  int
}

// queueTwin applies each operation to a Kernel and to the reference.
type queueTwin struct {
	t       testing.TB
	k       *Kernel
	handles []Event // by id, the kernel's schedule order
	log     []logEntry
	ref     refQueue
	logged  int // log entries already compared
	paths   queuePaths
	// runLen is the run's length after the last operation or callback:
	// the next pop comes from the heap exactly when it is zero.
	runLen int
}

func newQueueTwin(t testing.TB) *queueTwin {
	return &queueTwin{t: t, k: New()}
}

// schedule schedules an event with act a at t on both queues.
func (tw *queueTwin) schedule(t Time, a act) {
	tw.at(t, a)
	tw.ref.at(t, a)
}

// at schedules on the kernel, counting a spill.
func (tw *queueTwin) at(t Time, a act) {
	id := len(tw.handles)
	full := len(tw.k.run) == runCap
	e := tw.k.At(t, func() { tw.fired(id, a) })
	if full && e.n.index == inRun {
		tw.paths.spills++
	}
	tw.handles = append(tw.handles, e)
}

// fired is the kernel-side callback of event id.
func (tw *queueTwin) fired(id int, a act) {
	if tw.runLen == 0 {
		tw.paths.heapPops++
	}
	k := tw.k
	tw.log = append(tw.log, logEntry{fired: true, id: id, at: k.Now()})
	if c := a.cancel; c >= 0 && c < len(tw.handles) {
		tw.log = append(tw.log, logEntry{id: c, at: k.Now(), ok: tw.cancel(c)})
	}
	if a.repeat > 0 {
		tw.at(k.Now()+a.after, act{cancel: -1, after: a.after, repeat: a.repeat - 1})
	}
	tw.runLen = len(k.run)
}

// cancel cancels handle id on the kernel, counting the tier it left.
func (tw *queueTwin) cancel(id int) bool {
	e := tw.handles[id]
	inRunTier := e.Pending() && e.n.index == inRun
	ok := e.Cancel()
	switch {
	case ok && inRunTier:
		tw.paths.runCancels++
	case ok:
		tw.paths.heapCancels++
	}
	return ok
}

// check compares the kernel with the reference after an operation, and
// the kernel's tiers with their invariants.
func (tw *queueTwin) check(op string) {
	t, k, q := tw.t, tw.k, &tw.ref
	tw.runLen = len(k.run)
	for i := tw.logged; i < max(len(tw.log), len(q.log)); i++ {
		if i >= len(tw.log) || i >= len(q.log) || tw.log[i] != q.log[i] {
			t.Fatalf("after %s: entry %d of the kernel's log %v differs from the reference's %v",
				op, i, tw.log[min(i, len(tw.log)):], q.log[min(i, len(q.log)):])
		}
	}
	tw.logged = len(tw.log)
	if k.Now() != q.now || k.EventsFired() != q.fired || k.Pending() != len(q.events) {
		t.Fatalf("after %s: kernel now=%v fired=%d pending=%d, reference now=%v fired=%d pending=%d",
			op, k.Now(), k.EventsFired(), k.Pending(), q.now, q.fired, len(q.events))
	}
	tw.paths.maxPending = max(tw.paths.maxPending, k.Pending())
	r, h := k.run, k.heap
	if len(r) > runCap {
		t.Fatalf("after %s: run holds %d events, more than %d", op, len(r), runCap)
	}
	for i, n := range r {
		if n.index != inRun || i > 0 && !less(n, r[i-1]) {
			t.Fatalf("after %s: run slot %d (index %d) out of order", op, i, n.index)
		}
	}
	for i, n := range h {
		if n.index != i || i > 0 && less(n, h[(i-1)/heapArity]) {
			t.Fatalf("after %s: heap slot %d (index %d) out of order", op, i, n.index)
		}
	}
	if len(r) > 0 && len(h) > 0 && !less(r[0], h[0]) {
		t.Fatalf("after %s: the run's latest event (%v) does not come before the heap's first (%v)", op, r[0].at, h[0].at)
	}
}

// Bounds that keep one fuzz input quick, as the reference and the checks
// cost time linear in the pending events for every operation: the input
// bytes read, and the pending events past which a batch adds none.
const (
	maxInputBytes = 512
	maxBatchStart = 4 * runCap
)

// queueOps decodes a fuzz input into operations and applies each to the
// twin, checking after every one. Each operation takes its first byte
// modulo 9 as its kind and reads its arguments from the bytes after it;
// a missing byte reads as zero.
func (tw *queueTwin) queueOps(data []byte) {
	data = data[:min(len(data), maxInputBytes)]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// actOf decodes a callback: bits 0–1 the follow-ups, bits 2–4 their
	// delay, and bit 5 a cancel of a handle the next byte picks.
	actOf := func(b int) act {
		a := act{cancel: -1, after: Time(b >> 2 & 7), repeat: b & 3}
		if b&0x20 != 0 {
			a.cancel = tw.pick(next())
		}
		return a
	}
	k := tw.k
	for len(data) > 0 {
		switch next() % 9 {
		case 0, 1, 2: // At at Now plus a small delta
			d := Time(next() % 24)
			tw.schedule(k.Now()+d, actOf(next()))
			tw.check("At")
		case 3: // Cancel of a live, fired or recycled handle
			if id := tw.pick(next()); id >= 0 {
				got, want := tw.cancel(id), tw.ref.cancel(id)
				if got != want {
					tw.t.Fatalf("Cancel(%d) = %v, reference %v", id, got, want)
				}
			}
			tw.check("Cancel")
		case 4: // Pending of a handle
			if id := tw.pick(next()); id >= 0 {
				got, want := tw.handles[id].Pending(), tw.ref.find(id) >= 0
				if got != want {
					tw.t.Fatalf("Pending(%d) = %v, reference %v", id, got, want)
				}
			}
			tw.check("Pending")
		case 5: // Step
			if got, want := k.Step(), tw.ref.step(); got != want {
				tw.t.Fatalf("Step() = %v, reference %v", got, want)
			}
			tw.check("Step")
		case 6: // Run to a horizon
			h := k.Now() + Time(next())
			k.Run(h)
			tw.ref.run(h)
			tw.check("Run")
		case 7: // a batch of events, in time order or scattered
			// Bytes: the size; the shape (bit 0 in time order, bits 1–3
			// the spacing, bit 4 callbacks on about a quarter); the seed.
			n, b, seed := 16+next()%80, next(), uint64(next())
			if k.Pending() >= maxBatchStart {
				n = 0
			}
			r := NewRand(seed)
			for i := 0; i < n; i++ {
				d := Time(r.Intn(64))
				if b&1 != 0 {
					d = Time(i * (b>>1&7 + 1))
				}
				a := act{cancel: -1}
				if b&0x10 != 0 && r.Intn(4) == 0 {
					a = act{cancel: tw.pick(int(r.Uint64() % 256)), after: Time(r.Intn(8)), repeat: r.Intn(4)}
				}
				tw.schedule(k.Now()+d, a)
			}
			tw.check("batch")
		case 8: // RunUntilIdle: every follow-up chain ends
			k.RunUntilIdle()
			for tw.ref.step() {
			}
			tw.check("RunUntilIdle")
		}
	}
}

// pick maps a byte to a handle id, counting back from the newest handle,
// so cancels reach live events as well as fired and recycled ones; -1
// when there is no handle yet.
func (tw *queueTwin) pick(b int) int {
	if len(tw.handles) == 0 {
		return -1
	}
	return len(tw.handles) - 1 - b%len(tw.handles)
}

func FuzzKernelQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		newQueueTwin(t).queueOps(data)
	})
}

// TestKernelQueueCorpusTakesEveryPath runs FuzzKernelQueue's committed
// corpus and requires it to take each path the two tiers add: a full
// run spilling into the heap, an event fired from the heap with the run
// empty, and a cancel in each tier, with more events pending than the
// run holds.
func TestKernelQueueCorpusTakesEveryPath(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzKernelQueue", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 8 {
		t.Fatalf("corpus has %d seeds, want at least 8", len(files))
	}
	var all queuePaths
	for _, file := range files {
		tw := newQueueTwin(t)
		tw.queueOps(readCorpusBytes(t, file))
		p := tw.paths
		all.spills += p.spills
		all.heapPops += p.heapPops
		all.runCancels += p.runCancels
		all.heapCancels += p.heapCancels
		all.maxPending = max(all.maxPending, p.maxPending)
	}
	t.Logf("%+v", all)
	if all.spills == 0 || all.heapPops == 0 || all.runCancels == 0 || all.heapCancels == 0 || all.maxPending <= runCap {
		t.Fatalf("the corpus misses a path of the two tiers: %+v", all)
	}
}

// readCorpusBytes reads a one-[]byte seed file of the fuzzing corpus.
func readCorpusBytes(t *testing.T, file string) []byte {
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value corpus file", file)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	s, err := strconv.Unquote(lit)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s: not a []byte literal: %q", file, lines[1])
	}
	return []byte(s)
}
