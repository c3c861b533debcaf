package sim

// Tests for the event pool and the two-tier queue (the run and the
// heap): recycling edge cases (stale handles, generation mismatches), the
// fused run loop's queue-operation budget, and the zero-allocation
// steady state of schedule/fire cycles and tickers.

import (
	"testing"
	"time"
)

// TestRunHeapOpsPerFiredEvent pins the fused pop path: a Run over n live
// events, most of them in the heap behind a full run, performs exactly
// one pop per fired event, from the run or from the heap — the horizon
// check reads the next event in place and never re-traverses the queue
// the way the old peek-then-Step loop did. Spills from the run into the
// heap count as neither pushes nor pops.
func TestRunHeapOpsPerFiredEvent(t *testing.T) {
	k := New()
	const n = 1000
	r := NewRand(3)
	for i := 0; i < n; i++ {
		k.At(r.Duration(0, time.Second), func() {})
	}
	// One event beyond the horizon: the loop must bound-check it without
	// popping it.
	k.At(2*time.Second, func() {})
	k.Run(time.Second)
	pushes, pops, removes := k.QueueOps()
	if k.EventsFired() != n {
		t.Fatalf("fired %d of %d", k.EventsFired(), n)
	}
	if pops != n {
		t.Fatalf("pops=%d, want exactly one per fired event (%d)", pops, n)
	}
	if pushes != n+1 || removes != 0 {
		t.Fatalf("pushes=%d removes=%d", pushes, removes)
	}
}

// TestCancelHeapOps: cancellation is one targeted remove, from the run
// (the first 64 events here) or the heap (the rest), and cancelled events
// are never popped by the run loop afterwards.
func TestCancelHeapOps(t *testing.T) {
	k := New()
	var events []Event
	for i := 0; i < 100; i++ {
		events = append(events, k.At(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	for i, e := range events {
		if i%2 == 0 {
			if !e.Cancel() {
				t.Fatalf("cancel %d failed", i)
			}
		}
	}
	k.Run(time.Second)
	_, pops, removes := k.QueueOps()
	if k.EventsFired() != 50 {
		t.Fatalf("fired=%d want 50", k.EventsFired())
	}
	if pops != 50 {
		t.Fatalf("pops=%d, want 50: cancelled events must not reach the pop path", pops)
	}
	if removes != 50 {
		t.Fatalf("removes=%d want 50", removes)
	}
}

// TestCancelAfterFire: a handle whose event already fired reports not
// pending, and Cancel is a no-op.
func TestCancelAfterFire(t *testing.T) {
	k := New()
	fired := 0
	e := k.After(time.Millisecond, func() { fired++ })
	k.Run(time.Second)
	if fired != 1 {
		t.Fatal("event did not fire")
	}
	if e.Pending() {
		t.Fatal("fired event still pending")
	}
	if e.Cancel() {
		t.Fatal("Cancel after fire must report false")
	}
}

// TestCancelRecycledEvent: after e1 fires, its pooled node is recycled
// by the next schedule. The stale e1 handle must neither cancel nor
// observe the new occupant — the generation counter makes it inert.
func TestCancelRecycledEvent(t *testing.T) {
	k := New()
	e1 := k.After(time.Millisecond, func() {})
	k.Run(2 * time.Millisecond)

	// e2 recycles e1's node (the pool is LIFO and e1's node is the only
	// free one).
	fired := false
	e2 := k.After(time.Millisecond, func() { fired = true })
	if e1.Pending() {
		t.Fatal("stale handle reports pending after recycle")
	}
	if e1.Cancel() {
		t.Fatal("stale handle cancelled the recycled event")
	}
	if !e2.Pending() {
		t.Fatal("stale Cancel must not disturb the new occupant")
	}
	k.Run(time.Second)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if e2.Pending() || e2.Cancel() {
		t.Fatal("fired recycled event must be inert")
	}
}

// TestPendingOnStaleHandles walks a node through several generations and
// checks every older handle stays inert while the newest works.
func TestPendingOnStaleHandles(t *testing.T) {
	k := New()
	var handles []Event
	for i := 0; i < 5; i++ {
		e := k.After(time.Millisecond, func() {})
		handles = append(handles, e)
		if i%2 == 0 {
			e.Cancel() // release via the cancel path
		} else {
			k.Run(k.Now() + 2*time.Millisecond) // release via the fire path
		}
	}
	for i, e := range handles {
		if e.Pending() {
			t.Fatalf("handle %d pending after release", i)
		}
		if e.Cancel() {
			t.Fatalf("handle %d cancelled something after release", i)
		}
	}
	// At() stays readable on stale handles (it is part of the handle, not
	// the pooled node).
	for _, e := range handles {
		if e.At() <= 0 {
			t.Fatalf("stale handle lost its instant: %v", e.At())
		}
	}
	// A zero handle is inert too.
	var zero Event
	if zero.Pending() || zero.Cancel() {
		t.Fatal("zero handle must be inert")
	}
}

// TestSameInstantFIFOAcrossPoolReuse: recycling must not perturb the
// FIFO tie-break. A first batch fires (seeding the pool in fire order),
// then a second batch at one shared instant is scheduled through the
// recycled nodes — it must still fire in scheduling order.
func TestSameInstantFIFOAcrossPoolReuse(t *testing.T) {
	k := New()
	for i := 0; i < 8; i++ {
		k.At(time.Duration(8-i)*time.Millisecond, func() {}) // reverse time order
	}
	k.Run(10 * time.Millisecond)

	var order []int
	for i := 0; i < 8; i++ {
		i := i
		k.At(20*time.Millisecond, func() { order = append(order, i) })
	}
	k.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO broken across pool reuse: %v", order)
		}
	}
}

// TestScheduleFireSteadyStateZeroAllocs: once the pool is warm, the
// schedule+fire cycle allocates nothing.
func TestScheduleFireSteadyStateZeroAllocs(t *testing.T) {
	k := New()
	fn := func() {}
	k.After(time.Microsecond, fn)
	k.Step() // warm the pool
	if avg := testing.AllocsPerRun(1000, func() {
		k.After(time.Microsecond, fn)
		k.Step()
	}); avg != 0 {
		t.Fatalf("schedule/fire allocates %v per op, want 0", avg)
	}
}

// TestTickerSteadyStateZeroAllocs: a long-running ticker re-arms in
// place through the pool; its steady state allocates nothing.
func TestTickerSteadyStateZeroAllocs(t *testing.T) {
	k := New()
	ticks := uint64(0)
	tk := k.Periodic(0, time.Millisecond, func(uint64) { ticks++ })
	k.Run(10 * time.Millisecond) // warm-up: pool primed, queue sized
	if avg := testing.AllocsPerRun(100, func() {
		k.Run(k.Now() + 10*time.Millisecond)
	}); avg != 0 {
		t.Fatalf("ticker steady state allocates %v per 10-tick window, want 0", avg)
	}
	if tk.Ticks() != ticks || ticks < 1000 {
		t.Fatalf("ticker miscounted: %d vs %d", tk.Ticks(), ticks)
	}
}

// TestKernelResetReuse: Reset returns the kernel to t=0 with pool and
// capacity retained, so the next run schedules without allocating and
// executes identically.
func TestKernelResetReuse(t *testing.T) {
	k := New()
	run := func() []Time {
		var at []Time
		r := NewRand(7)
		for i := 0; i < 100; i++ {
			k.At(r.Duration(0, time.Second), func() { at = append(at, k.Now()) })
		}
		k.At(2*time.Second, func() {}) // left pending at Reset
		k.Run(time.Second)
		return at
	}
	first := run()
	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 || k.EventsFired() != 0 {
		t.Fatalf("Reset left state behind: now=%v pending=%d fired=%d", k.Now(), k.Pending(), k.EventsFired())
	}
	second := run()
	if len(first) != len(second) {
		t.Fatalf("reset run diverged: %d vs %d events", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reset run diverged at %d: %v vs %v", i, first[i], second[i])
		}
	}
	// Third run on the warmed pool: the event nodes allocate nothing (the
	// callback's append and closure are the caller's).
	k.Reset()
	fn := func() {}
	if avg := testing.AllocsPerRun(100, func() {
		k.Reset()
		for i := 0; i < 50; i++ {
			k.At(Time(i)*time.Millisecond, fn)
		}
		k.Run(time.Second)
	}); avg != 0 {
		t.Fatalf("reset+reschedule allocates %v per run, want 0", avg)
	}
}

// TestHeapRemoveStress: random interleaved schedules and cancels keep
// the run and the heap consistent — fire order stays monotone and counts
// match.
func TestHeapRemoveStress(t *testing.T) {
	k := New()
	r := NewRand(11)
	live := map[int]Event{}
	scheduled, cancelled := 0, 0
	fired := 0
	var last Time
	for i := 0; i < 5000; i++ {
		switch r.Intn(3) {
		case 0, 1:
			live[scheduled] = k.At(k.Now()+r.Duration(0, time.Second), func() {
				if k.Now() < last {
					t.Errorf("time went backwards: %v < %v", k.Now(), last)
				}
				last = k.Now()
				fired++
			})
			scheduled++
		case 2:
			for id, e := range live {
				if e.Cancel() {
					cancelled++
				}
				delete(live, id)
				break
			}
		}
	}
	k.RunUntilIdle()
	if fired != scheduled-cancelled {
		t.Fatalf("fired=%d scheduled=%d cancelled=%d", fired, scheduled, cancelled)
	}
}
