package rtos

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"rmtest/internal/sim"
)

// drainEvery spawns a periodic task that empties q every period from
// time zero, appending what it receives to *got.
func drainEvery(s *Scheduler, q *Queue, period sim.Time, got *[]int) {
	s.SpawnPeriodic("consumer", 1, 0, period, func(tk *Task) {
		for {
			v, ok := q.TryRecv()
			if !ok {
				return
			}
			*got = append(*got, v.(int))
		}
	})
}

func TestQueueFIFOOrder(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 10)
	var got []int
	sent := 0
	s.SpawnPeriodic("producer", 2, 0, ms, func(*Task) {
		if sent < 5 {
			q.TrySend(sent)
			sent++
		}
	})
	drainEvery(s, q, 2*ms, &got)
	k.Run(time.Second)
	if len(got) != 5 {
		t.Fatalf("received %v, want 0..4", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

// TestQueueTryOps: a full queue rejects a send and an empty queue
// reports no value, both from a task body and from a kernel callback.
func TestQueueTryOps(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 1)
	check := func(who string) {
		if _, ok := q.TryRecv(); ok {
			t.Errorf("%s: TryRecv on empty queue succeeded", who)
		}
		if !q.TrySend(1) {
			t.Errorf("%s: TrySend into empty queue failed", who)
		}
		if q.TrySend(2) {
			t.Errorf("%s: TrySend into full queue succeeded", who)
		}
		if v, ok := q.TryRecv(); !ok || v != 1 {
			t.Errorf("%s: TryRecv got %v %v", who, v, ok)
		}
	}
	s.Spawn("a", 1, 0, func(tk *Task) { check("task") })
	k.At(ms, func() { check("callback") })
	k.Run(time.Second)
	if q.Dropped() != 2 || q.Enqueued() != 2 {
		t.Fatalf("dropped=%d enqueued=%d, want 2 and 2", q.Dropped(), q.Enqueued())
	}
}

func TestQueueStats(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 4)
	var got []int
	s.Spawn("producer", 2, 0, func(*Task) {
		for i := 0; i < 6; i++ {
			q.TrySend(i)
		}
	})
	s.Spawn("late", 2, 30*ms, func(*Task) { q.TrySend(6) })
	drainEvery(s, q, 20*ms, &got)
	k.Run(time.Second)
	if q.Enqueued() != 5 {
		t.Fatalf("enqueued=%d, want 5", q.Enqueued())
	}
	if q.Dropped() != 2 {
		t.Fatalf("dropped=%d, want 2 (values 4 and 5 met a full queue)", q.Dropped())
	}
	if q.MaxDepth() != 4 {
		t.Fatalf("maxDepth=%d, want 4", q.MaxDepth())
	}
	if q.Len() != 0 || len(got) != 5 || got[4] != 6 {
		t.Fatalf("len=%d received %v, want empty and [0 1 2 3 6]", q.Len(), got)
	}
}

// Property: for any capacity, send pattern and drain period, every value
// sent arrives exactly once and in order, or TrySend rejected it and
// Dropped counts it.
func TestQueuePropertyFIFOConservation(t *testing.T) {
	f := func(seed uint64, capRaw, nRaw, periodRaw uint8) bool {
		capacity := int(capRaw%5) + 1
		n := int(nRaw%40) + 1
		period := sim.Time(periodRaw%4+1) * ms
		k := sim.New()
		s := New(k)
		q := s.NewQueue("q", capacity)
		r := sim.NewRand(seed)
		var accepted, got []int
		var at sim.Time
		for i := 0; i < n; i++ {
			at += r.Duration(0, 2*ms)
			s.Spawn(fmt.Sprintf("producer%d", i), 2, at, func(*Task) {
				if q.TrySend(i) {
					accepted = append(accepted, i)
				}
			})
		}
		drainEvery(s, q, period, &got)
		k.Run(10 * time.Second)
		if len(got) != len(accepted) || q.Dropped() != uint64(n-len(accepted)) {
			return false
		}
		for i := range got {
			if got[i] != accepted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueNameAndCap(t *testing.T) {
	_, s := rig(t)
	q := s.NewQueue("telemetry", 3)
	if q.Name() != "telemetry" || q.Cap() != 3 {
		t.Fatalf("meta: %s %d", q.Name(), q.Cap())
	}
}

func TestUnboundedQueueNeverBlocks(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("unbounded", 0)
	s.Spawn("producer", 1, 0, func(tk *Task) {
		for i := 0; i < 1000; i++ {
			if !q.TrySend(i) {
				t.Errorf("unbounded queue rejected send %d", i)
				return
			}
		}
	})
	k.Run(time.Second)
	if q.Len() != 1000 || q.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 1000 and 0", q.Len(), q.Dropped())
	}
}
