package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestResetDropsStaleEventsMidWindow is the fault-injection reset
// regression: a kernel Reset in the middle of a fault window (pending
// one-shot events, an armed self-rearming ticker) must leave nothing
// behind — no event from the previous run may land in the next one, and
// stale handles must stay inert even after their pooled nodes are
// recycled.
func TestResetDropsStaleEventsMidWindow(t *testing.T) {
	k := New()
	var stale int
	k.At(10*time.Millisecond, func() {})
	late := k.At(50*time.Millisecond, func() { stale++ })
	tick := k.Periodic(5*time.Millisecond, 5*time.Millisecond, func(uint64) {})
	tick.SetDrift(500_000) // active drift, as a mid-window clock-drift fault leaves it
	k.Run(20 * time.Millisecond)
	// 5ms start, then 7.5ms effective period: fires at 5, 12.5, 20.
	if got := tick.Ticks(); got != 3 {
		t.Fatalf("pre-reset ticks = %d, want 3", got)
	}
	if !late.Pending() {
		t.Fatal("the 50ms event should still be pending at reset time")
	}

	k.Reset()
	if k.Pending() != 0 || k.Now() != 0 {
		t.Fatalf("reset kernel not pristine: pending=%d now=%v", k.Pending(), k.Now())
	}
	if late.Pending() {
		t.Fatal("stale handle reports pending after Reset")
	}

	// Next run: the stale event must not land, the old ticker must not
	// re-arm, and cancelling the stale handle — whose node has been
	// recycled for the fresh event — must not disturb the new schedule.
	fresh := 0
	ev := k.At(5*time.Millisecond, func() { fresh++ })
	if late.Cancel() {
		t.Fatal("stale Cancel claimed to cancel a recycled node")
	}
	k.Run(100 * time.Millisecond)
	if stale != 0 {
		t.Fatal("event from the previous run fired after Reset")
	}
	if fresh != 1 {
		t.Fatalf("fresh event fired %d times, want 1", fresh)
	}
	if got := tick.Ticks(); got != 3 {
		t.Fatalf("old ticker advanced to %d ticks after Reset", got)
	}
	_ = ev
}

// TestResumeAfterStopThenReset is the scratch-reuse hygiene check: a
// run halted by Stop is resumed, then the kernel is Reset. Nothing from
// the stopped run — pending one-shots, the ticker's re-arm chain, the
// stop itself — may leak into the next run, and the clock and sequence
// counter must restart from zero so the next run is byte-identical to
// one on a fresh kernel.
func TestResumeAfterStopThenReset(t *testing.T) {
	k := New()
	var ticks []Time
	k.Periodic(5*time.Millisecond, 5*time.Millisecond, func(uint64) {
		ticks = append(ticks, k.Now())
		if k.Now() >= 12*time.Millisecond {
			k.Stop()
		}
	})
	stale := 0
	k.At(90*time.Millisecond, func() { stale++ })

	// First run halts at the first tick past 12ms (15ms), not at the
	// horizon.
	k.Run(100 * time.Millisecond)
	if k.Now() != 15*time.Millisecond {
		t.Fatalf("Stop did not halt the run at 15ms: now=%v", k.Now())
	}

	// Resume: the ticker stops the run again at its very next tick, so
	// resuming makes progress one tick at a time without disturbing the
	// schedule.
	k.Run(100 * time.Millisecond)
	if k.Now() != 20*time.Millisecond {
		t.Fatalf("resume after Stop: now=%v, want 20ms", k.Now())
	}

	k.Reset()
	if k.Pending() != 0 || k.Now() != 0 {
		t.Fatalf("reset kernel not pristine: pending=%d now=%v", k.Pending(), k.Now())
	}

	// The next run must look exactly like a run on a fresh kernel: the
	// old ticker must not re-arm, the 90ms one-shot must not land, the
	// old stop must not halt anything, and a new schedule must fire in
	// full.
	ticks = nil
	var fresh []Time
	k.Periodic(10*time.Millisecond, 10*time.Millisecond, func(uint64) {
		fresh = append(fresh, k.Now())
	})
	k.Run(45 * time.Millisecond)
	if k.Now() != 45*time.Millisecond {
		t.Fatalf("a stale stop halted the post-reset run at %v", k.Now())
	}
	if stale != 0 {
		t.Fatal("one-shot from the stopped run fired after Reset")
	}
	if len(ticks) != 0 {
		t.Fatalf("old ticker fired after Reset: %v", ticks)
	}
	want := []Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond}
	if len(fresh) != len(want) {
		t.Fatalf("fresh ticker fired at %v, want %v", fresh, want)
	}
	for i := range want {
		if fresh[i] != want[i] {
			t.Fatalf("fresh ticker fired at %v, want %v", fresh, want)
		}
	}
}

// TestTickerDriftStretchesPeriod pins SetDrift semantics: positive ppm
// slows the ticker from the next re-arm on, clearing the drift restores
// the nominal period, and the stretch is exactly period*ppm/1e6.
func TestTickerDriftStretchesPeriod(t *testing.T) {
	k := New()
	var fires []Time
	tick := k.Periodic(5*time.Millisecond, 5*time.Millisecond, func(uint64) {
		fires = append(fires, k.Now())
	})
	// Window [12ms, 40ms): +1_000_000 ppm doubles the period.
	k.At(12*time.Millisecond, func() { tick.SetDrift(1_000_000) })
	k.At(40*time.Millisecond, func() { tick.SetDrift(0) })
	k.Run(58 * time.Millisecond)
	want := []Time{
		5 * time.Millisecond, 10 * time.Millisecond, // nominal
		15 * time.Millisecond,                        // armed before the window opened
		25 * time.Millisecond, 35 * time.Millisecond, // doubled inside the window
		45 * time.Millisecond,                        // last in-window re-arm
		50 * time.Millisecond, 55 * time.Millisecond, // nominal again
	}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

// TestTickerDriftExactForAnyPeriod: the stretch is period*ppm/1e6 also
// for periods that are not a whole number of milliseconds, and a long
// period does not overflow the product.
func TestTickerDriftExactForAnyPeriod(t *testing.T) {
	for _, tc := range []struct {
		period Time
		ppm    int64
		want   Time // the drifted re-arm period
	}{
		{500 * time.Microsecond, 1_000_000, time.Millisecond},
		{1500 * time.Microsecond, 1_000_000, 3 * time.Millisecond},
		{1500 * time.Microsecond, -250_000, 1125 * time.Microsecond},
		{10 * time.Hour, 500_000, 15 * time.Hour},
	} {
		k := New()
		var fires []Time
		tick := k.Periodic(tc.period, tc.period, func(uint64) { fires = append(fires, k.Now()) })
		tick.SetDrift(tc.ppm) // the first tick is already armed at the nominal period
		k.Run(tc.period + 3*tc.want)
		want := []Time{tc.period, tc.period + tc.want, tc.period + 2*tc.want, tc.period + 3*tc.want}
		if fmt.Sprint(fires) != fmt.Sprint(want) {
			t.Errorf("period %v at %+d ppm: fires = %v, want %v", tc.period, tc.ppm, fires, want)
		}
	}
}

// TestTickerDriftClampsToOneNanosecond guards the extreme-speedup edge:
// a drift of -1e6 ppm would zero the period; the ticker must re-arm at
// +1ns instead of its own instant.
func TestTickerDriftClampsToOneNanosecond(t *testing.T) {
	k := New()
	n := 0
	tick := k.Periodic(time.Millisecond, time.Millisecond, func(uint64) { n++ })
	tick.SetDrift(-1_000_000)
	k.Run(time.Millisecond + 10)
	if n != 11 {
		t.Fatalf("clamped ticker fired %d times, want 11 (1ms then every 1ns)", n)
	}
}
