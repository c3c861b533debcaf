package rtos

import (
	"testing"
	"time"

	"rmtest/internal/sim"
)

// TestBlockAttributionQueue: a task blocked on a queue names the queue
// while it waits, and its block and unblock records carry the queue's
// name, both when a sender delivers and when a timed receive expires.
func TestBlockAttributionQueue(t *testing.T) {
	k := sim.New()
	s := New(k)
	tr := s.Record()
	q := s.NewQueue("q", 1)
	r := s.NewQueue("r", 1)
	recv := s.Spawn("recv", 2, 0, func(tk *Task) {
		tk.Recv(q) // blocks until the sender delivers at 1ms
	})
	s.Spawn("send", 1, time.Millisecond, func(tk *Task) {
		tk.Send(q, 1)
	})
	var timedOut bool
	waiter := s.Spawn("waiter", 1, 0, func(tk *Task) {
		_, ok := tk.RecvTimeout(r, 3*time.Millisecond) // nobody sends
		timedOut = !ok
	})
	k.Run(500 * time.Microsecond)
	// Mid-simulation, both receivers are blocked with live attribution.
	if recv.State() != TaskBlocked || recv.BlockedOn() != "q" {
		t.Fatalf("at 0.5ms: recv state=%v on=%q, want blocked on q", recv.State(), recv.BlockedOn())
	}
	if waiter.State() != TaskBlocked || waiter.BlockedOn() != "r" {
		t.Fatalf("at 0.5ms: waiter state=%v on=%q, want blocked on r", waiter.State(), waiter.BlockedOn())
	}
	k.Run(10 * time.Millisecond)
	if recv.BlockedOn() != "" || waiter.BlockedOn() != "" {
		t.Errorf("after unblock: attribution not cleared (recv on %q, waiter on %q)",
			recv.BlockedOn(), waiter.BlockedOn())
	}
	if !timedOut {
		t.Error("RecvTimeout on a queue nobody sends to reported a value")
	}

	type span struct {
		from, to           sim.Time
		onBlock, onUnblock string
	}
	spans := map[string]*span{}
	for _, rec := range tr.Records() {
		switch rec.Kind {
		case TraceBlock:
			spans[rec.Task] = &span{from: rec.At, to: -1, onBlock: rec.Resource}
		case TraceUnblock:
			spans[rec.Task].to, spans[rec.Task].onUnblock = rec.At, rec.Resource
		}
	}
	want := map[string]span{
		"recv":   {from: 0, to: time.Millisecond, onBlock: "q", onUnblock: "q"},
		"waiter": {from: 0, to: 3 * time.Millisecond, onBlock: "r", onUnblock: "r"},
	}
	if len(spans) != len(want) {
		t.Fatalf("blocked tasks %v, want recv and waiter", spans)
	}
	for name, w := range want {
		if got := spans[name]; got == nil || *got != w {
			t.Errorf("%s blocked %+v, want %+v", name, got, w)
		}
	}
	s.Shutdown()
}
