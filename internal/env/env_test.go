package env

import (
	"testing"
	"time"

	"rmtest/internal/sim"
)

const ms = time.Millisecond

func TestDefineGetSet(t *testing.T) {
	k := sim.New()
	e := New(k)
	s := e.Define("btn", 0)
	if e.Get("btn") != 0 || s.Value() != 0 {
		t.Fatal("initial value wrong")
	}
	e.Set("btn", 1)
	if e.Get("btn") != 1 || s.Changes() != 1 {
		t.Fatal("set failed")
	}
	e.Set("btn", 1) // no-op
	if s.Changes() != 1 {
		t.Fatal("same-value set should not count as change")
	}
}

func TestDuplicateDefinePanics(t *testing.T) {
	k := sim.New()
	e := New(k)
	e.Define("x", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Define("x", 0)
}

func TestUndefinedSignalPanics(t *testing.T) {
	k := sim.New()
	e := New(k)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Get("ghost")
}

func TestWatcherSeesChange(t *testing.T) {
	k := sim.New()
	e := New(k)
	e.Define("btn", 0)
	var got []int64
	var at sim.Time
	e.Watch("btn", func(name string, old, now int64, t sim.Time) {
		got = append(got, old, now)
		at = t
	})
	k.At(7*ms, func() { e.Set("btn", 1) })
	k.Run(time.Second)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 || at != 7*ms {
		t.Fatalf("got=%v at=%v", got, at)
	}
}

func TestSetAtAndPulse(t *testing.T) {
	k := sim.New()
	e := New(k)
	e.Define("btn", 0)
	var changes []sim.Time
	e.Watch("btn", func(_ string, _, _ int64, at sim.Time) {
		changes = append(changes, at)
	})
	e.PulseAt(10*ms, "btn", 1, 0, 5*ms)
	k.Run(time.Second)
	if len(changes) != 2 || changes[0] != 10*ms || changes[1] != 15*ms {
		t.Fatalf("changes=%v", changes)
	}
	if e.Get("btn") != 0 {
		t.Fatal("pulse should revert")
	}
}

func TestNamesSorted(t *testing.T) {
	k := sim.New()
	e := New(k)
	e.Define("zeta", 0)
	e.Define("alpha", 0)
	n := e.Names()
	if len(n) != 2 || n[0] != "alpha" || n[1] != "zeta" {
		t.Fatalf("names=%v", n)
	}
}

func TestIntegratorDrainsReservoir(t *testing.T) {
	k := sim.New()
	e := New(k)
	e.Define("motor", 0)
	e.Define("volume", 1000)
	e.NewIntegrator("motor", "volume", 1, 0, 10*ms)
	k.Run(100 * ms)
	if e.Get("volume") != 1000 {
		t.Fatal("volume should not drain while motor off")
	}
	e.Set("motor", 2) // 2 units/ms * 10ms period = 20 per tick
	k.Run(200 * ms)
	want := int64(1000 - 2*10*10) // 10 ticks in 100ms
	if e.Get("volume") != want {
		t.Fatalf("volume=%d want %d", e.Get("volume"), want)
	}
}

func TestIntegratorClampsAtFloor(t *testing.T) {
	k := sim.New()
	e := New(k)
	e.Define("motor", 10)
	e.Define("volume", 25)
	e.NewIntegrator("motor", "volume", 1, 0, ms)
	k.Run(time.Second)
	if e.Get("volume") != 0 {
		t.Fatalf("volume=%d", e.Get("volume"))
	}
}

func TestIntegratorStop(t *testing.T) {
	k := sim.New()
	e := New(k)
	e.Define("motor", 1)
	e.Define("volume", 1000)
	in := e.NewIntegrator("motor", "volume", 1, 0, ms)
	k.Run(10 * ms)
	in.Stop()
	v := e.Get("volume")
	k.Run(time.Second)
	if e.Get("volume") != v {
		t.Fatal("integrator kept running after Stop")
	}
}

func TestWatchAll(t *testing.T) {
	k := sim.New()
	e := New(k)
	e.Define("a", 0)
	e.Define("b", 0)
	n := 0
	e.WatchAll(func(string, int64, int64, sim.Time) { n++ })
	e.Set("a", 1)
	e.Set("b", 1)
	if n != 2 {
		t.Fatalf("n=%d", n)
	}
}
