package rtos

import (
	"testing"
	"time"

	"rmtest/internal/sim"
)

// TestBlockAttributionMutex: block/unblock records carry the contended
// resource and the mutex holder, and BlockSpans pairs them into
// attributed intervals.
func TestBlockAttributionMutex(t *testing.T) {
	k := sim.New()
	s := New(k)
	tr := s.Record()
	m := s.NewMutex("m")
	s.Spawn("L", 1, 0, func(tk *Task) {
		tk.Lock(m)
		tk.Compute(5 * time.Millisecond)
		tk.Unlock(m)
	})
	h := s.Spawn("H", 2, time.Millisecond, func(tk *Task) {
		tk.Lock(m)
		tk.Unlock(m)
	})
	k.Run(2 * time.Millisecond)
	// Mid-simulation, H is blocked with live attribution on the task.
	if h.State() != TaskBlocked || h.BlockedOn() != "m" || h.BlockedBy() != "L" {
		t.Fatalf("at 2ms: H state=%v on=%q by=%q, want blocked on m by L",
			h.State(), h.BlockedOn(), h.BlockedBy())
	}
	k.Run(20 * time.Millisecond)
	if h.BlockedOn() != "" || h.BlockedBy() != "" {
		t.Errorf("after unblock: attribution not cleared (on=%q by=%q)", h.BlockedOn(), h.BlockedBy())
	}

	var blocks, unblocks []TraceRecord
	for _, r := range tr.Records() {
		switch r.Kind {
		case TraceBlock:
			blocks = append(blocks, r)
		case TraceUnblock:
			unblocks = append(unblocks, r)
		}
	}
	if len(blocks) != 1 || len(unblocks) != 1 {
		t.Fatalf("want 1 block + 1 unblock record, got %d + %d", len(blocks), len(unblocks))
	}
	if blocks[0].Resource != "m" || blocks[0].Holder != "L" || blocks[0].Task != "H" {
		t.Errorf("block record %+v, want H on m held by L", blocks[0])
	}
	if unblocks[0].Resource != "m" || unblocks[0].Holder != "L" {
		t.Errorf("unblock record %+v, want resource m holder L", unblocks[0])
	}

	spans := tr.BlockSpans()
	if len(spans) != 1 {
		t.Fatalf("want 1 block span, got %d", len(spans))
	}
	sp := spans[0]
	if sp.Task != "H" || sp.Resource != "m" || sp.Holder != "L" {
		t.Errorf("span %+v, want H on m held by L", sp)
	}
	if got, want := sp.Duration(), 4*time.Millisecond; got != want {
		t.Errorf("span duration %v, want %v (1ms contention until L's 5ms section ends)", got, want)
	}
	s.Shutdown()
}

// TestBlockAttributionQueueSemaphore: queue and semaphore waits name the
// resource but no holder (none is well-defined), including on timeout
// wakeups.
func TestBlockAttributionQueueSemaphore(t *testing.T) {
	k := sim.New()
	s := New(k)
	tr := s.Record()
	q := s.NewQueue("q", 1)
	sem := s.NewSemaphore("sem", 0, 1)
	s.Spawn("recv", 2, 0, func(tk *Task) {
		tk.Recv(q) // blocks until the sender delivers
	})
	s.Spawn("send", 1, time.Millisecond, func(tk *Task) {
		tk.Send(q, 1)
	})
	s.Spawn("taker", 1, 0, func(tk *Task) {
		tk.TakeTimeout(sem, 3*time.Millisecond) // times out: nobody gives
	})
	k.Run(10 * time.Millisecond)
	spans := tr.BlockSpans()
	byTask := map[string]BlockSpan{}
	for _, sp := range spans {
		byTask[sp.Task] = sp
	}
	if sp := byTask["recv"]; sp.Resource != "q" || sp.Holder != "" {
		t.Errorf("recv span %+v, want resource q with no holder", sp)
	}
	if sp := byTask["taker"]; sp.Resource != "sem" || sp.Duration() != 3*time.Millisecond {
		t.Errorf("taker span %+v, want 3ms on sem (timeout path)", sp)
	}
	s.Shutdown()
}
