package hw

import (
	"strings"
	"testing"
	"time"

	"rmtest/internal/env"
	"rmtest/internal/sim"
)

const ms = time.Millisecond

func board(t *testing.T, cfg BoardConfig) (*sim.Kernel, *env.Environment, *Board) {
	t.Helper()
	k := sim.New()
	e := env.New(k)
	b, err := NewBoard(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, e, b
}

func TestPolledSensorLatchesOnSample(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "btn", Signal: "sig_btn", SamplePeriod: 10 * ms}},
	})
	s := b.Sensor("btn")
	e.SetAt(12*ms, "sig_btn", 1) // change between samples at 10 and 20
	k.Run(19 * ms)
	if s.Read() != 0 {
		t.Fatal("latched before next sample")
	}
	k.Run(20 * ms)
	if s.Read() != 1 {
		t.Fatal("not latched at sample instant")
	}
	if s.LatchedAt() != 20*ms {
		t.Fatalf("latchedAt=%v", s.LatchedAt())
	}
}

func TestSensorDebounce(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "btn", Signal: "sig", SamplePeriod: 10 * ms, Debounce: 3}},
	})
	s := b.Sensor("btn")
	// A glitch shorter than one sample period is never seen.
	e.PulseAt(11*ms, "sig", 1, 0, 5*ms)
	k.Run(100 * ms)
	if s.Read() != 0 {
		t.Fatal("glitch should be invisible")
	}
	// A real press: stable for 3 samples before latching.
	e.SetAt(105*ms, "sig", 1)
	k.Run(125 * ms) // samples at 110, 120: only 2 stable observations
	if s.Read() != 0 {
		t.Fatal("latched before debounce count")
	}
	k.Run(135 * ms) // third stable sample at 130
	if s.Read() != 1 {
		t.Fatal("debounced value not latched")
	}
}

func TestActuatorLatency(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Actuators: []ActuatorConfig{{Name: "motor", Signal: "sig_motor", Latency: 4 * ms}},
	})
	a := b.Actuator("motor")
	var at sim.Time
	e.Watch("sig_motor", func(_ string, _, _ int64, t sim.Time) { at = t })
	k.At(10*ms, func() { a.Write(5) })
	k.Run(time.Second)
	if e.Get("sig_motor") != 5 || at != 14*ms {
		t.Fatalf("v=%d at=%v", e.Get("sig_motor"), at)
	}
}

func TestActuatorDuplicateWriteSuppressed(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Actuators: []ActuatorConfig{{Name: "m", Signal: "s", Latency: 0}},
	})
	a := b.Actuator("m")
	k.At(ms, func() { a.Write(1); a.Write(1) })
	k.Run(time.Second)
	if a.Commands() != 1 {
		t.Fatalf("commands=%d", a.Commands())
	}
	_ = e
}

func TestActuatorZeroLatencyImmediate(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Actuators: []ActuatorConfig{{Name: "m", Signal: "s"}},
	})
	k.At(ms, func() {
		b.Actuator("m").Write(7)
		if e.Get("s") != 7 {
			t.Error("zero-latency write should be synchronous")
		}
	})
	k.Run(time.Second)
}

func TestBoardValidation(t *testing.T) {
	k := sim.New()
	e := env.New(k)
	if _, err := NewBoard(e, BoardConfig{Sensors: []SensorConfig{{Name: "", Signal: "x", SamplePeriod: ms}}}); err == nil {
		t.Fatal("empty sensor name should fail")
	}
	if _, err := NewBoard(e, BoardConfig{Sensors: []SensorConfig{
		{Name: "a", Signal: "x1", SamplePeriod: ms}, {Name: "a", Signal: "x2", SamplePeriod: ms},
	}}); err == nil || !strings.Contains(err.Error(), "duplicate sensor") {
		t.Fatalf("duplicate sensor should fail as a duplicate, got %v", err)
	}
	for _, p := range []sim.Time{0, -ms} {
		if _, err := NewBoard(e, BoardConfig{Sensors: []SensorConfig{{Name: "s", Signal: "x", SamplePeriod: p}}}); err == nil || !strings.Contains(err.Error(), "sample period") {
			t.Fatalf("sample period %v should fail for want of a positive period, got %v", p, err)
		}
	}
	if _, err := NewBoard(e, BoardConfig{Actuators: []ActuatorConfig{
		{Name: "b", Signal: "y"}, {Name: "b", Signal: "y2"},
	}}); err == nil {
		t.Fatal("duplicate actuator should fail")
	}
}

func TestBoardNamesAndLookups(t *testing.T) {
	_, _, b := board(t, BoardConfig{
		Sensors: []SensorConfig{
			{Name: "z", Signal: "sz", SamplePeriod: ms},
			{Name: "a", Signal: "sa", SamplePeriod: ms},
		},
		Actuators: []ActuatorConfig{{Name: "m", Signal: "sm"}},
	})
	if n := b.SensorNames(); len(n) != 2 || n[0] != "a" || n[1] != "z" {
		t.Fatalf("sensors=%v", n)
	}
	if n := b.ActuatorNames(); len(n) != 1 || n[0] != "m" {
		t.Fatalf("actuators=%v", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown sensor should panic")
		}
	}()
	b.Sensor("ghost")
}

// TestSensorSampleCountAndOffset: a sensor samples on its period from
// time zero, so its sampling clock has no phase offset.
func TestSensorSampleCountAndOffset(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "s", Signal: "x", SamplePeriod: 10 * ms}},
	})
	s := b.Sensor("s")
	e.SetAt(25*ms, "x", 1)
	k.Run(36 * ms) // samples at 0, 10, 20, 30
	if got := s.Samples(); got != 4 {
		t.Fatalf("samples=%d", got)
	}
	if s.Read() != 1 || s.LatchedAt() != 30*ms {
		t.Fatalf("v=%d at=%v, want the 25ms edge latched by the sample at 30ms", s.Read(), s.LatchedAt())
	}
}

func TestSharedSignalDefinedOnce(t *testing.T) {
	// Two devices can reference the same signal; the board defines it once.
	k := sim.New()
	e := env.New(k)
	e.Define("shared", 0)
	_, err := NewBoard(e, BoardConfig{
		Sensors:   []SensorConfig{{Name: "s", Signal: "shared", SamplePeriod: ms}},
		Actuators: []ActuatorConfig{{Name: "a", Signal: "shared"}},
	})
	if err != nil {
		t.Fatal(err)
	}
}
