package rtos

import (
	"testing"
	"time"

	"rmtest/internal/sim"
)

func TestSemaphoreBinary(t *testing.T) {
	k, s := rig(t)
	sem := s.NewSemaphore("sem", 0, 1)
	var at sim.Time
	s.Spawn("waiter", 1, 0, func(tk *Task) {
		tk.Take(sem)
		at = tk.Now()
	})
	s.Spawn("giver", 1, 15*ms, func(tk *Task) { tk.Give(sem) })
	k.Run(time.Second)
	if at != 15*ms {
		t.Fatalf("taken at %v", at)
	}
	if sem.Count() != 0 {
		t.Fatalf("count=%d", sem.Count())
	}
}

func TestSemaphoreCountingAndMaxClamp(t *testing.T) {
	k, s := rig(t)
	sem := s.NewSemaphore("sem", 0, 2)
	s.Spawn("giver", 1, 0, func(tk *Task) {
		for i := 0; i < 5; i++ {
			tk.Give(sem)
		}
	})
	k.Run(time.Second)
	if sem.Count() != 2 {
		t.Fatalf("count=%d, want clamp at 2", sem.Count())
	}
}

func TestSemaphoreTakeTimeout(t *testing.T) {
	k, s := rig(t)
	sem := s.NewSemaphore("sem", 0, 1)
	var ok bool
	var at sim.Time
	s.Spawn("waiter", 1, 0, func(tk *Task) {
		ok = tk.TakeTimeout(sem, 12*ms)
		at = tk.Now()
	})
	k.Run(time.Second)
	if ok || at != 12*ms {
		t.Fatalf("ok=%v at=%v", ok, at)
	}
}

func TestSemaphoreWakesHighestPriority(t *testing.T) {
	k, s := rig(t)
	sem := s.NewSemaphore("sem", 0, 0)
	var first string
	s.Spawn("lo", 1, 0, func(tk *Task) {
		tk.Take(sem)
		if first == "" {
			first = "lo"
		}
	})
	s.Spawn("hi", 5, ms, func(tk *Task) {
		tk.Take(sem)
		if first == "" {
			first = "hi"
		}
	})
	s.Spawn("giver", 9, 10*ms, func(tk *Task) { tk.Give(sem); tk.Give(sem) })
	k.Run(time.Second)
	if first != "hi" {
		t.Fatalf("first=%q", first)
	}
}

func TestGiveFromISR(t *testing.T) {
	k, s := rig(t)
	sem := s.NewSemaphore("sem", 0, 1)
	var at sim.Time
	s.Spawn("waiter", 1, 0, func(tk *Task) {
		tk.Take(sem)
		at = tk.Now()
	})
	k.At(8*ms, func() { s.Interrupt(0, sem.GiveFromISR) })
	k.Run(time.Second)
	if at != 8*ms {
		t.Fatalf("at=%v", at)
	}
}

func TestMutexExclusion(t *testing.T) {
	k, s := rig(t)
	mu := s.NewMutex("mu")
	var critical int
	var maxInside int
	body := func(tk *Task) {
		tk.Lock(mu)
		critical++
		if critical > maxInside {
			maxInside = critical
		}
		tk.Compute(10 * ms)
		critical--
		tk.Unlock(mu)
	}
	s.Spawn("a", 1, 0, body)
	s.Spawn("b", 1, ms, body)
	s.Spawn("c", 1, 2*ms, body)
	k.Run(time.Second)
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated: %d inside", maxInside)
	}
}

func TestMutexPriorityInheritance(t *testing.T) {
	// Classic inversion scenario: lo holds the mutex, hi blocks on it,
	// mid (CPU hog) must NOT run before lo releases, because lo inherits
	// hi's priority.
	k, s := rig(t)
	mu := s.NewMutex("mu")
	var order []string
	s.Spawn("lo", 1, 0, func(tk *Task) {
		tk.Lock(mu)
		tk.Compute(30 * ms) // holds the lock across hi's arrival
		tk.Unlock(mu)
		order = append(order, "lo")
	})
	s.Spawn("mid", 5, 10*ms, func(tk *Task) {
		tk.Compute(20 * ms)
		order = append(order, "mid")
	})
	s.Spawn("hi", 9, 5*ms, func(tk *Task) {
		tk.Lock(mu)
		order = append(order, "hi")
		tk.Unlock(mu)
	})
	k.Run(time.Second)
	if len(order) != 3 || order[0] != "hi" {
		t.Fatalf("order=%v; hi must acquire the lock before mid finishes", order)
	}
	// Without inheritance, mid (released at 10ms, 20ms burst) would delay
	// lo's release to 50ms+. With inheritance lo finishes its burst at
	// 30ms, hi locks at 30ms.
	lo := taskByName(s, "lo")
	if lo.Priority() != lo.BasePriority() {
		t.Fatalf("lo priority not restored: %d vs base %d", lo.Priority(), lo.BasePriority())
	}
}

func TestMutexHandoffToHighestWaiter(t *testing.T) {
	k, s := rig(t)
	mu := s.NewMutex("mu")
	var order []string
	s.Spawn("holder", 4, 0, func(tk *Task) {
		tk.Lock(mu)
		tk.Compute(20 * ms)
		tk.Unlock(mu)
	})
	s.Spawn("lo", 1, ms, func(tk *Task) {
		tk.Lock(mu)
		order = append(order, "lo")
		tk.Unlock(mu)
	})
	s.Spawn("hi", 3, 2*ms, func(tk *Task) {
		tk.Lock(mu)
		order = append(order, "hi")
		tk.Unlock(mu)
	})
	k.Run(time.Second)
	if len(order) != 2 || order[0] != "hi" {
		t.Fatalf("order=%v", order)
	}
	if mu.Holder() != nil {
		t.Fatal("mutex should end unlocked")
	}
}

func TestRecursiveLockPanics(t *testing.T) {
	k, s := rig(t)
	mu := s.NewMutex("mu")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on recursive lock")
		}
	}()
	s.Spawn("a", 1, 0, func(tk *Task) {
		tk.Lock(mu)
		tk.Lock(mu)
	})
	k.Run(time.Second)
}

func taskByName(s *Scheduler, name string) *Task {
	for _, t := range s.Tasks() {
		if t.Name() == name {
			return t
		}
	}
	return nil
}
