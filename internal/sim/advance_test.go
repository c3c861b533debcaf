package sim

import (
	"testing"
	"time"
)

// TestAdvance: Advance moves the clock only during Run, up to Run's
// horizon, before the next pending event and before Stop. In each case
// an event at 1ms calls Advance(at) after the setup has scheduled its
// events.
func TestAdvance(t *testing.T) {
	const ms = time.Millisecond
	run := func(k *Kernel) { k.Run(10 * ms) }
	cases := []struct {
		name  string
		drive func(k *Kernel)
		// setup runs before the probe is scheduled.
		setup    func(k *Kernel)
		callStop bool // the probe calls Stop before Advance
		at       Time
		want     bool
	}{
		{name: "during Run", drive: run, at: 5 * ms, want: true},
		{name: "to the horizon", drive: run, at: 10 * ms, want: true},
		{name: "to now", drive: run, at: ms, want: true},
		{name: "before now", drive: run, at: ms - 1, want: false},
		{name: "past the horizon", drive: run, at: 10*ms + 1, want: false},
		{name: "in Step", drive: func(k *Kernel) { k.Step() }, at: 5 * ms, want: false},
		{name: "in RunUntilIdle", drive: func(k *Kernel) { k.RunUntilIdle() }, at: 5 * ms, want: false},
		// A Run that Stop ended returns before its horizon; a later Step
		// or RunUntilIdle must not advance up to that stale horizon.
		{name: "in Step after a stopped Run", drive: func(k *Kernel) { k.At(0, k.Stop); k.Run(10 * ms); k.Step() }, at: 5 * ms, want: false},
		{name: "in RunUntilIdle after a stopped Run", drive: func(k *Kernel) { k.At(0, k.Stop); k.Run(10 * ms); k.RunUntilIdle() }, at: 5 * ms, want: false},
		{
			name: "event exactly at t", drive: run, at: 5 * ms, want: false,
			setup: func(k *Kernel) { k.At(5*ms, func() {}) },
		},
		{
			name: "event before t", drive: run, at: 5 * ms, want: false,
			setup: func(k *Kernel) { k.At(3*ms, func() {}) },
		},
		{
			name: "event after t", drive: run, at: 5 * ms, want: true,
			setup: func(k *Kernel) { k.At(5*ms+1, func() {}) },
		},
		{name: "after Stop", drive: run, callStop: true, at: 5 * ms, want: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			var got, called bool
			if tc.setup != nil {
				tc.setup(k)
			}
			k.At(ms, func() {
				if tc.callStop {
					k.Stop()
				}
				now, fired, seq := k.now, k.fired, k.seq
				got, called = k.Advance(tc.at), true
				if k.fired != fired || k.seq != seq {
					t.Fatalf("Advance fired %d events and took %d sequence numbers", k.fired-fired, k.seq-seq)
				}
				want := now
				if got {
					want = tc.at
				}
				if k.now != want {
					t.Fatalf("Advance(%v) = %v left the clock at %v, want %v", tc.at, got, k.now, want)
				}
			})
			tc.drive(k)
			if !called {
				t.Fatal("the event at 1ms did not fire")
			}
			if got != tc.want {
				t.Fatalf("Advance(%v) = %v, want %v", tc.at, got, tc.want)
			}
		})
	}
}

// TestAdvanceMovesClockOnly: a successful Advance moves the clock and
// resets the same-instant count, fires nothing and takes no sequence
// number; events scheduled afterwards for one instant still fire FIFO,
// and Run goes on to its horizon.
func TestAdvanceMovesClockOnly(t *testing.T) {
	const ms = time.Millisecond
	k := New()
	var order []int
	k.At(ms, func() {}) // a first event at 1ms, so the same-instant count is 1
	k.At(ms, func() {
		if k.atInstant != 1 {
			t.Fatalf("same-instant count %d at the second event at 1ms, want 1", k.atInstant)
		}
		fired, seq := k.EventsFired(), k.seq
		if !k.Advance(4 * ms) {
			t.Fatal("Advance refused with nothing pending before 4ms")
		}
		if k.Now() != 4*ms || k.EventsFired() != fired || k.seq != seq {
			t.Fatalf("after Advance: now %v fired %d seq %d; want 4ms, %d, %d", k.Now(), k.EventsFired(), k.seq, fired, seq)
		}
		if k.atInstant != 0 {
			t.Fatalf("same-instant count %d after the clock moved, want 0", k.atInstant)
		}
		for i := range 3 {
			k.At(6*ms, func() { order = append(order, i) })
		}
	})
	k.Run(10 * ms)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("same-instant events after Advance fired out of order: %v", order)
	}
	if k.Now() != 10*ms {
		t.Fatalf("Run ended at %v, want its horizon 10ms", k.Now())
	}
}

// TestAdvanceStateClearedByRunAndReset: Advance refuses once Run has
// returned, even after a callback panicked out of it, and Reset clears
// the Run state.
func TestAdvanceStateClearedByRunAndReset(t *testing.T) {
	const ms = time.Millisecond
	k := New()
	k.At(ms, func() { panic("boom") })
	func() {
		defer func() { _ = recover() }()
		k.Run(10 * ms)
	}()
	if k.Advance(2 * ms) {
		t.Fatal("Advance succeeded after Run panicked out")
	}
	k.running, k.advance, k.horizon = true, true, 10*ms
	k.Reset()
	if k.running || k.advance || k.horizon != 0 || k.Advance(ms) {
		t.Fatal("Reset left Run state behind")
	}
}
