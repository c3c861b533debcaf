package rtos

import (
	"testing"
	"testing/quick"
	"time"

	"rmtest/internal/sim"
)

func TestQueueFIFOOrder(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 10)
	var got []int
	s.Spawn("producer", 2, 0, func(tk *Task) {
		for i := 0; i < 5; i++ {
			tk.Send(q, i)
		}
	})
	s.Spawn("consumer", 1, 0, func(tk *Task) {
		for i := 0; i < 5; i++ {
			got = append(got, tk.Recv(q).(int))
		}
	})
	k.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestQueueBlocksWhenEmpty(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 1)
	var recvAt sim.Time
	s.Spawn("consumer", 1, 0, func(tk *Task) {
		v := tk.Recv(q)
		recvAt = tk.Now()
		if v != "x" {
			t.Errorf("got %v", v)
		}
	})
	s.Spawn("producer", 1, 30*ms, func(tk *Task) { tk.Send(q, "x") })
	k.Run(time.Second)
	if recvAt != 30*ms {
		t.Fatalf("received at %v, want 30ms", recvAt)
	}
}

func TestQueueBlocksWhenFull(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 2)
	var sentThird sim.Time
	s.Spawn("producer", 2, 0, func(tk *Task) {
		tk.Send(q, 1)
		tk.Send(q, 2)
		tk.Send(q, 3) // blocks: capacity 2
		sentThird = tk.Now()
	})
	s.Spawn("consumer", 1, 50*ms, func(tk *Task) {
		if v := tk.Recv(q); v != 1 {
			t.Errorf("first recv %v", v)
		}
	})
	k.Run(time.Second)
	if sentThird != 50*ms {
		t.Fatalf("third send completed at %v, want 50ms", sentThird)
	}
	if q.Len() != 2 {
		t.Fatalf("queue len %d, want 2 (slot freed then refilled)", q.Len())
	}
}

func TestQueueRecvTimeoutExpires(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 1)
	var ok bool
	var at sim.Time
	s.Spawn("consumer", 1, 0, func(tk *Task) {
		_, ok = tk.RecvTimeout(q, 25*ms)
		at = tk.Now()
	})
	k.Run(time.Second)
	if ok {
		t.Fatal("timeout recv should fail")
	}
	if at != 25*ms {
		t.Fatalf("woke at %v", at)
	}
}

func TestQueueRecvTimeoutSatisfiedEarly(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 1)
	var v any
	var ok bool
	s.Spawn("consumer", 1, 0, func(tk *Task) {
		v, ok = tk.RecvTimeout(q, 100*ms)
	})
	s.Spawn("producer", 1, 10*ms, func(tk *Task) { tk.Send(q, 7) })
	k.Run(time.Second)
	if !ok || v != 7 {
		t.Fatalf("v=%v ok=%v", v, ok)
	}
}

func TestQueueSendTimeoutExpires(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 1)
	var ok bool
	s.Spawn("producer", 1, 0, func(tk *Task) {
		tk.Send(q, 1)
		ok = tk.SendTimeout(q, 2, 15*ms)
	})
	k.Run(time.Second)
	if ok {
		t.Fatal("send into full queue should time out")
	}
	if q.Dropped() != 1 {
		t.Fatalf("dropped=%d", q.Dropped())
	}
}

func TestQueueTryOps(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 1)
	s.Spawn("a", 1, 0, func(tk *Task) {
		if _, ok := tk.TryRecv(q); ok {
			t.Error("TryRecv on empty queue succeeded")
		}
		if !tk.TrySend(q, 1) {
			t.Error("TrySend into empty queue failed")
		}
		if tk.TrySend(q, 2) {
			t.Error("TrySend into full queue succeeded")
		}
		if v, ok := tk.TryRecv(q); !ok || v != 1 {
			t.Errorf("TryRecv got %v %v", v, ok)
		}
	})
	k.Run(time.Second)
}

func TestQueueWakesHighestPriorityWaiter(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 4)
	var order []string
	mk := func(name string, prio int, start sim.Time) {
		s.Spawn(name, prio, start, func(tk *Task) {
			tk.Recv(q)
			order = append(order, name)
		})
	}
	mk("lo", 1, 0)
	mk("hi", 5, ms)
	mk("mid", 3, 2*ms)
	s.Spawn("producer", 10, 10*ms, func(tk *Task) {
		tk.Send(q, 1)
		tk.Send(q, 2)
		tk.Send(q, 3)
	})
	k.Run(time.Second)
	want := []string{"hi", "mid", "lo"}
	if len(order) != 3 {
		t.Fatalf("order=%v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v want %v", order, want)
		}
	}
}

func TestQueueSenderWakeupPreemptsLowerPriorityReceiver(t *testing.T) {
	// A low-priority task sending to a queue on which a high-priority task
	// waits must lose the CPU at the request boundary.
	k, s := rig(t)
	q := s.NewQueue("q", 1)
	var order []string
	s.Spawn("hi", 5, 0, func(tk *Task) {
		tk.Recv(q)
		order = append(order, "hi")
	})
	s.Spawn("lo", 1, ms, func(tk *Task) {
		tk.Send(q, 1)
		order = append(order, "lo")
	})
	k.Run(time.Second)
	if len(order) != 2 || order[0] != "hi" || order[1] != "lo" {
		t.Fatalf("order=%v, want [hi lo]", order)
	}
}

func TestQueueStats(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 8)
	s.Spawn("producer", 2, 0, func(tk *Task) {
		for i := 0; i < 4; i++ {
			tk.Send(q, i)
		}
	})
	s.Spawn("consumer", 1, 20*ms, func(tk *Task) {
		for i := 0; i < 4; i++ {
			tk.Recv(q)
		}
	})
	k.Run(time.Second)
	if q.Enqueued() != 4 {
		t.Fatalf("enqueued=%d", q.Enqueued())
	}
	if q.MaxDepth() != 4 {
		t.Fatalf("maxDepth=%d", q.MaxDepth())
	}
	if q.MeanWait() != 20*ms {
		t.Fatalf("meanWait=%v want 20ms", q.MeanWait())
	}
}

func TestSendFromISRDropsWhenFull(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 1)
	k.At(0, func() {
		if !q.SendFromISR(1) {
			t.Error("first ISR send failed")
		}
		if q.SendFromISR(2) {
			t.Error("ISR send into full queue succeeded")
		}
	})
	k.Run(time.Second)
	if q.Dropped() != 1 {
		t.Fatalf("dropped=%d", q.Dropped())
	}
}

// Property: for any pattern of producer/consumer counts and capacities,
// every value sent is received exactly once and in FIFO order per
// producer.
func TestQueuePropertyFIFOConservation(t *testing.T) {
	f := func(seed uint64, capRaw uint8, nRaw uint8) bool {
		capacity := int(capRaw%5) + 1
		n := int(nRaw%40) + 1
		k := sim.New()
		s := New(k)
		defer s.Shutdown()
		q := s.NewQueue("q", capacity)
		r := sim.NewRand(seed)
		var got []int
		s.Spawn("producer", 2, 0, func(tk *Task) {
			for i := 0; i < n; i++ {
				tk.Sleep(r.Duration(0, 2*ms))
				tk.Send(q, i)
			}
		})
		s.Spawn("consumer", 1, 0, func(tk *Task) {
			for i := 0; i < n; i++ {
				got = append(got, tk.Recv(q).(int))
			}
		})
		k.Run(10 * time.Second)
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDirectDeliveryCountsInStats(t *testing.T) {
	k, s := rig(t)
	q := s.NewQueue("q", 4)
	s.Spawn("consumer", 1, 0, func(tk *Task) { tk.Recv(q) })
	s.Spawn("producer", 1, 5*ms, func(tk *Task) { tk.Send(q, 1) })
	k.Run(time.Second)
	if q.Enqueued() != 1 {
		t.Fatalf("enqueued=%d; direct delivery must count", q.Enqueued())
	}
	if q.Len() != 0 {
		t.Fatal("value should have bypassed the buffer")
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
	done := false
	s.Spawn("producer", 1, 0, func(tk *Task) {
		for i := 0; i < 1000; i++ {
			tk.Send(q, i)
		}
		done = true
	})
	k.Run(time.Second)
	if !done || q.Len() != 1000 {
		t.Fatalf("done=%v len=%d", done, q.Len())
	}
}
