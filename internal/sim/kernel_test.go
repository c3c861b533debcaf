package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroKernelUsable(t *testing.T) {
	var k Kernel
	ran := false
	k.After(time.Millisecond, func() { ran = true })
	k.Run(time.Second)
	if !ran {
		t.Fatal("event did not fire")
	}
	if k.Now() != time.Second {
		t.Fatalf("clock should land on horizon, got %v", k.Now())
	}
}

func TestEventOrderByTime(t *testing.T) {
	k := New()
	var order []int
	k.At(30*time.Millisecond, func() { order = append(order, 3) })
	k.At(10*time.Millisecond, func() { order = append(order, 1) })
	k.At(20*time.Millisecond, func() { order = append(order, 2) })
	k.Run(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	k.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie not broken FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	e := k.After(10*time.Millisecond, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending")
	}
	if !e.Cancel() {
		t.Fatal("first cancel should report true")
	}
	if e.Cancel() {
		t.Fatal("second cancel should report false")
	}
	k.Run(time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
}

func TestCancelFromSibling(t *testing.T) {
	// An event scheduled at the same instant can cancel a later sibling.
	k := New()
	fired := false
	var victim Event
	k.At(time.Millisecond, func() { victim.Cancel() })
	victim = k.At(time.Millisecond, func() { fired = true })
	k.Run(time.Second)
	if fired {
		t.Fatal("victim fired despite cancellation at same instant")
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New()
	var times []Time
	k.After(time.Millisecond, func() {
		times = append(times, k.Now())
		k.After(2*time.Millisecond, func() {
			times = append(times, k.Now())
		})
	})
	k.Run(time.Second)
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 3*time.Millisecond {
		t.Fatalf("nested schedule wrong: %v", times)
	}
}

func TestScheduleAtCurrentInstantDuringEvent(t *testing.T) {
	k := New()
	var seen []string
	k.After(time.Millisecond, func() {
		k.After(0, func() { seen = append(seen, "child") })
		seen = append(seen, "parent")
	})
	k.Run(time.Second)
	if len(seen) != 2 || seen[0] != "parent" || seen[1] != "child" {
		t.Fatalf("zero-delay child should run after parent returns: %v", seen)
	}
	if k.EventsFired() != 2 {
		t.Fatalf("EventsFired = %d, want 2", k.EventsFired())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	k := New()
	k.After(time.Millisecond, func() {})
	k.Run(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.At(0, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	k.After(-time.Millisecond, func() {})
}

func TestRunHorizonExclusive(t *testing.T) {
	k := New()
	fired := false
	k.At(10*time.Millisecond, func() { fired = true })
	k.Run(9 * time.Millisecond)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if k.Now() != 9*time.Millisecond {
		t.Fatalf("clock = %v, want horizon", k.Now())
	}
	k.Run(10 * time.Millisecond)
	if !fired {
		t.Fatal("event at horizon should fire")
	}
}

func TestStopInsideEvent(t *testing.T) {
	k := New()
	count := 0
	k.At(time.Millisecond, func() { count++; k.Stop() })
	k.At(2*time.Millisecond, func() { count++ })
	k.Run(time.Second)
	if count != 1 {
		t.Fatalf("Stop did not halt the run, count=%d", count)
	}
	// A fresh Run resumes.
	k.Run(time.Second)
	if count != 2 {
		t.Fatalf("second Run did not resume, count=%d", count)
	}
}

func TestRunUntilIdle(t *testing.T) {
	k := New()
	n := 0
	var rec func()
	rec = func() {
		n++
		if n < 5 {
			k.After(time.Millisecond, rec)
		}
	}
	k.After(time.Millisecond, rec)
	k.RunUntilIdle()
	if n != 5 {
		t.Fatalf("n=%d, want 5", n)
	}
	if k.Pending() != 0 {
		t.Fatalf("pending=%d after idle", k.Pending())
	}
}

func TestPeriodic(t *testing.T) {
	k := New()
	var at []Time
	tk := k.Periodic(5*time.Millisecond, 10*time.Millisecond, func(n uint64) {
		at = append(at, k.Now())
	})
	k.Run(36 * time.Millisecond)
	if len(at) != 4 {
		t.Fatalf("ticks=%d want 4 (%v)", len(at), at)
	}
	for i, want := range []Time{5, 15, 25, 35} {
		if at[i] != want*time.Millisecond {
			t.Fatalf("tick %d at %v", i, at[i])
		}
	}
	tk.Stop()
	k.Run(100 * time.Millisecond)
	if len(at) != 4 {
		t.Fatal("ticker fired after Stop")
	}
	if tk.Ticks() != 4 {
		t.Fatalf("Ticks()=%d", tk.Ticks())
	}
}

func TestPeriodicStopFromCallback(t *testing.T) {
	k := New()
	var tk *Ticker
	n := 0
	tk = k.Periodic(0, time.Millisecond, func(uint64) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	k.Run(time.Second)
	if n != 3 {
		t.Fatalf("n=%d want 3", n)
	}
}

func TestManyEventsHeapStress(t *testing.T) {
	k := New()
	r := NewRand(1)
	fired := 0
	const n = 5000
	var last Time
	for i := 0; i < n; i++ {
		k.At(r.Duration(0, time.Second), func() {
			if k.Now() < last {
				t.Errorf("time went backwards: %v < %v", k.Now(), last)
			}
			last = k.Now()
			fired++
		})
	}
	k.Run(time.Second)
	if fired != n {
		t.Fatalf("fired %d of %d", fired, n)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds should differ")
	}
}

func TestRandIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n16 uint16) bool {
		n := int(n16%1000) + 1
		r := NewRand(seed)
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDurationRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, lo32, span32 uint32) bool {
		lo := Time(lo32)
		hi := lo + Time(span32)
		r := NewRand(seed)
		d := r.Duration(lo, hi)
		return d >= lo && d <= hi
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(9)
	child := r.Fork()
	// Parent and child streams should not be identical.
	same := true
	for i := 0; i < 16; i++ {
		if r.Uint64() != child.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forked stream identical to parent")
	}
}

func TestZeroTimeLivelockDetected(t *testing.T) {
	k := New()
	var rearm func()
	rearm = func() { k.After(0, rearm) }
	k.After(0, rearm)
	defer func() {
		if recover() == nil {
			t.Fatal("expected livelock panic")
		}
	}()
	k.Run(time.Second)
}

func TestSameInstantBurstBelowLimitIsFine(t *testing.T) {
	k := New()
	n := 0
	for i := 0; i < 10000; i++ {
		k.At(time.Millisecond, func() { n++ })
	}
	k.Run(time.Second)
	if n != 10000 {
		t.Fatalf("n=%d", n)
	}
}

func TestEventAtAccessor(t *testing.T) {
	k := New()
	e := k.At(5*time.Millisecond, func() {})
	if e.At() != 5*time.Millisecond {
		t.Fatalf("At()=%v", e.At())
	}
}

// TestStopHaltsAtDecidingEvent: Stop from an event ends the run after
// that event, with the clock at its instant, and leaves the later events
// queued for the next run.
func TestStopHaltsAtDecidingEvent(t *testing.T) {
	k := New()
	var hits []Time
	for _, at := range []Time{10, 20, 30, 40} {
		k.At(at, func() {
			hits = append(hits, at)
			if at == 20 {
				k.Stop()
			}
		})
	}
	k.Run(100)
	if len(hits) != 2 || hits[1] != 20 {
		t.Fatalf("run should halt after the deciding event: %v", hits)
	}
	if k.Now() != 20 {
		t.Fatalf("clock should stay at the decision instant, got %v", k.Now())
	}
	k.Run(100)
	if len(hits) != 4 || k.Now() != 100 {
		t.Fatalf("resumed run should finish: hits=%v now=%v", hits, k.Now())
	}
}

// TestStopWhenRunUntilIdle: Stop ends RunUntilIdle too.
func TestStopWhenRunUntilIdle(t *testing.T) {
	k := New()
	n := 0
	var rearm func()
	rearm = func() {
		if n++; n == 3 {
			k.Stop()
		}
		k.After(1, rearm)
	}
	k.After(1, rearm)
	k.RunUntilIdle() // would loop forever without the Stop
	if n != 3 {
		t.Fatalf("n=%d", n)
	}
}

// TestRunUntilContinuesRun: RunUntil, called from an event, fires the
// events Run would fire next, in the same order, and returns as soon as
// its condition holds after one; calls nest, and Run goes on after the
// outermost returns.
func TestRunUntilContinuesRun(t *testing.T) {
	k := New()
	var order []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		k.At(at, func() { order = append(order, at) })
	}
	reached3 := func() bool { return k.Now() >= 3 }
	k.At(1, func() {
		if !k.RunUntil(reached3) || k.Now() != 3 {
			t.Fatalf("RunUntil returned at %v, want true at 3", k.Now())
		}
		order = append(order, -1)
	})
	k.At(2, func() {
		if !k.RunUntil(reached3) || k.Now() != 3 {
			t.Fatalf("nested RunUntil returned at %v, want true at 3", k.Now())
		}
		order = append(order, -2)
	})
	k.Run(10)
	if want := []Time{1, 2, 3, -2, -1, 4, 5}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if k.Now() != 10 {
		t.Fatalf("Run ended at %v, want its horizon", k.Now())
	}
}

// TestRunUntilEndsWithRun: RunUntil reports false when the run it
// continues would end, at Run's horizon or after Stop, and under
// RunUntilIdle when the queue drains; RunUntil outside a run panics.
func TestRunUntilEndsWithRun(t *testing.T) {
	never := func() bool { return false }
	for _, tc := range []struct {
		name  string
		setup func(k *Kernel)
		drive func(k *Kernel)
		end   Time // where RunUntil returns
	}{
		{"at the horizon", func(k *Kernel) { k.At(8, func() {}); k.At(11, func() {}) }, func(k *Kernel) { k.Run(10) }, 8},
		{"after Stop", func(k *Kernel) { k.At(4, k.Stop); k.At(5, func() {}) }, func(k *Kernel) { k.Run(10) }, 4},
		{"under RunUntilIdle", func(k *Kernel) { k.At(1<<40, func() {}) }, func(k *Kernel) { k.RunUntilIdle() }, 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			var got *bool
			k.At(1, func() {
				ok := k.RunUntil(never)
				got = &ok
				if k.Now() != tc.end {
					t.Fatalf("RunUntil returned at %v, want %v", k.Now(), tc.end)
				}
			})
			tc.setup(k)
			tc.drive(k)
			if got == nil || *got {
				t.Fatalf("RunUntil returned %v, want false", got)
			}
		})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil under Step must panic")
		}
	}()
	k := New()
	k.At(1, func() { k.RunUntil(never) })
	k.Step()
}

// TestRunUntilSharesSameInstantCount: the events RunUntil fires count
// towards the run's zero-time livelock limit together with those the run
// fired before it at the same instant; neither half alone reaches it.
func TestRunUntilSharesSameInstantCount(t *testing.T) {
	k := New()
	spin := func(n int, then func()) func() {
		var f func()
		f = func() {
			if n--; n > 0 {
				k.After(0, f)
			} else if then != nil {
				then()
			}
		}
		return f
	}
	k.At(1, spin(MaxSameInstant/2, func() {
		k.After(0, func() {
			k.After(0, spin(MaxSameInstant/2+2, nil))
			k.RunUntil(func() bool { return k.Pending() == 0 })
		})
	}))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "livelock") {
			t.Fatalf("panic %v, want the zero-time livelock", r)
		}
	}()
	k.Run(10)
}
