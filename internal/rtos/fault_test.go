package rtos

import (
	"testing"
	"time"
)

// TestInjectOverrunScalesInWindowBursts pins the WCET-overrun hook: only
// bursts issued inside [from, from+duration) are scaled, the scale
// applies at issue time (a burst started in-window keeps its stretched
// length past the window close), and CPU accounting reflects the
// stretched time.
func TestInjectOverrunScalesInWindowBursts(t *testing.T) {
	k, s := rig(t)
	var stamps []struct{ at, cpu int64 }
	tk := s.SpawnPeriodic("a", 1, 0, 20*ms, func(tk *Task) {
		tk.Compute(10 * ms)
		stamps = append(stamps, struct{ at, cpu int64 }{int64(tk.Now()), int64(tk.CPUTime())})
	})
	// Bursts are issued at 0, 20, 60 and 80ms (the 40ms release is
	// skipped). Window [15ms, 45ms): only the 20ms burst is tripled (10ms
	// -> 30ms), and it runs to 50ms — past the window close at 45ms,
	// because the scale applies at issue time. The 60ms and 80ms bursts
	// are nominal again.
	tk.InjectOverrun(15*ms, 30*ms, 3, 1)
	k.Run(95 * ms)
	wantEnd := []int64{int64(10 * ms), int64(50 * ms), int64(70 * ms), int64(90 * ms)}
	wantCPU := []int64{int64(10 * ms), int64(40 * ms), int64(50 * ms), int64(60 * ms)}
	if len(stamps) != 4 {
		t.Fatalf("got %d bursts, want 4", len(stamps))
	}
	for i, st := range stamps {
		if st.at != wantEnd[i] || st.cpu != wantCPU[i] {
			t.Fatalf("burst %d ended at %v cpu %v, want %v / %v",
				i, time.Duration(st.at), time.Duration(st.cpu),
				time.Duration(wantEnd[i]), time.Duration(wantCPU[i]))
		}
	}
}

func TestInjectOverrunRejectsNonPositiveScale(t *testing.T) {
	_, s := rig(t)
	tk := s.Spawn("a", 1, 0, func(*Task) {})
	defer func() {
		if recover() == nil {
			t.Fatal("InjectOverrun with non-positive scale must panic")
		}
	}()
	tk.InjectOverrun(0, time.Second, 0, 1)
}

// TestInjectISRStormStealsCPU pins the storm hook: interrupts fire every
// period inside the window, each steals its cost from the running burst,
// and StormISRs counts exactly the in-window firings.
func TestInjectISRStormStealsCPU(t *testing.T) {
	k, s := rig(t)
	var done int64
	s.Spawn("a", 1, 0, func(tk *Task) {
		tk.Compute(50 * ms)
		done = int64(tk.Now())
	})
	// Storm [10ms, 30ms): interrupts at 10 and 20ms (the 30ms tick is at
	// the window end and does not fire), each stealing 5ms.
	s.InjectISRStorm(10*ms, 20*ms, 10*ms, 5*ms)
	k.Run(time.Second)
	if got := s.StormISRs(); got != 2 {
		t.Fatalf("storm ISRs = %d, want 2", got)
	}
	if done != int64(60*ms) {
		t.Fatalf("burst finished at %v, want 60ms (50ms work + 2x5ms stolen)", time.Duration(done))
	}
}

func TestInjectISRStormRejectsNonPositivePeriod(t *testing.T) {
	_, s := rig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("InjectISRStorm with non-positive period must panic")
		}
	}()
	s.InjectISRStorm(0, time.Second, 0, ms)
}

// TestInjectDropLosesEveryNthSend pins the queue-loss hook: inside the
// window every `every`-th send vanishes in transit — the sender sees
// success, FaultDropped counts the loss, capacity-based Dropped does
// not — and sends outside the window are untouched.
func TestInjectDropLosesEveryNthSend(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 16)
	q.InjectDrop(0, 100*ms, 2) // every 2nd send lost in [0, 100ms)
	var got []int
	drainEvery(s, q, 5*ms, &got)
	sent := 0
	s.SpawnPeriodic("tx", 2, 0, 10*ms, func(*Task) {
		if sent < 4 {
			sent++
			if !q.TrySend(sent) {
				t.Errorf("send %d rejected: fault drops must look like success to the sender", sent)
			}
		}
	})
	s.Spawn("late", 2, 150*ms, func(*Task) { // window over
		for i := 5; i <= 6; i++ {
			q.TrySend(i)
		}
	})
	k.Run(time.Second)
	want := []int{1, 3, 5, 6} // 2 and 4 lost in transit
	if len(got) != len(want) {
		t.Fatalf("received %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("received %v, want %v", got, want)
		}
	}
	if q.FaultDropped() != 2 {
		t.Fatalf("fault-dropped = %d, want 2", q.FaultDropped())
	}
	if q.Dropped() != 0 {
		t.Fatalf("capacity-dropped = %d, want 0 (fault losses are invisible to capacity accounting)", q.Dropped())
	}
}

func TestFaultTargetLookups(t *testing.T) {
	_, s := rig(t)
	tk := s.Spawn("codeM", 2, 0, func(*Task) {})
	q := s.NewQueue("inQ", 4)
	if s.TaskByName("codeM") != tk {
		t.Fatal("TaskByName failed to find a spawned task")
	}
	if s.TaskByName("nope") != nil {
		t.Fatal("TaskByName must return nil for unknown names")
	}
	if s.Queue("inQ") != q {
		t.Fatal("Queue failed to find a created queue")
	}
	if s.Queue("nope") != nil {
		t.Fatal("Queue must return nil for unknown names")
	}
}
