package hw

import (
	"testing"
	"time"

	"rmtest/internal/sim"
)

func TestSensorStuckWindow(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: 5 * ms}},
	})
	s := b.Sensor("s")
	s.InjectStuck(20*ms, 30*ms, 0) // stuck at 0 during [20, 50)
	e.SetAt(25*ms, "sig", 1)       // press during the stuck window
	k.Run(45 * ms)
	if s.Read() != 0 {
		t.Fatal("stuck sensor must report the stuck value")
	}
	k.Run(60 * ms) // window over at 50ms; signal still 1
	if s.Read() != 1 {
		t.Fatal("sensor must resample after the stuck window")
	}
}

func TestSensorStuckAtValue(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: 5 * ms}},
	})
	s := b.Sensor("s")
	s.InjectStuck(10*ms, 20*ms, 7)
	k.Run(15 * ms)
	if s.Read() != 7 {
		t.Fatalf("stuck value not reported: %d", s.Read())
	}
	_ = e
}

func TestActuatorDeadWindow(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Actuators: []ActuatorConfig{{Name: "m", Signal: "sig", Latency: 0}},
	})
	a := b.Actuator("m")
	a.InjectDead(10*ms, 20*ms)
	k.At(15*ms, func() { a.Write(5) }) // dropped
	k.At(40*ms, func() { a.Write(6) }) // applied
	k.Run(time.Second)
	if e.Get("sig") != 6 {
		t.Fatalf("sig=%d", e.Get("sig"))
	}
	if a.IgnoredCommands() != 1 {
		t.Fatalf("ignored=%d", a.IgnoredCommands())
	}
}

// jitterLatches runs a polled sensor through a scripted signal under an
// InjectJitter fault and returns the latch instants of each change.
func jitterLatches(t *testing.T, seed uint64) []sim.Time {
	t.Helper()
	k, e, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: 5 * ms}},
	})
	s := b.Sensor("s")
	s.InjectJitter(0, time.Hour, 8*ms, seed)
	var latches []sim.Time
	for i, at := range []sim.Time{20 * ms, 60 * ms, 110 * ms} {
		v := int64(1 - i%2) // alternate 1,0,1 so every edge changes the latch
		e.SetAt(at, "sig", v)
		prev := s.LatchedAt()
		for k.Now() < at+30*ms && s.LatchedAt() == prev {
			if !k.Step() {
				break
			}
		}
		if s.Read() != v {
			t.Fatalf("latch %d: got %d want %d", i, s.Read(), v)
		}
		latches = append(latches, s.LatchedAt())
		// Bounded: the latch may trail the change by at most one sample
		// period plus the jitter bound.
		if d := s.LatchedAt() - at; d < 0 || d > 5*ms+8*ms {
			t.Fatalf("latch %d delay %v out of [0, period+max]", i, d)
		}
	}
	return latches
}

func TestInjectJitterDeterministicAndBounded(t *testing.T) {
	a := jitterLatches(t, 7)
	b := jitterLatches(t, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must reproduce latch instants: %v vs %v", a, b)
		}
	}
	c := jitterLatches(t, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds should perturb differently: %v", a)
	}
}

func TestInjectJitterWindowBounded(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: 5 * ms}},
	})
	s := b.Sensor("s")
	s.InjectJitter(100*ms, 50*ms, 20*ms, 1)
	// Outside the window the latch lands on the next sample instant.
	e.SetAt(22*ms, "sig", 1)
	k.Run(30 * ms)
	if s.Read() != 1 || s.LatchedAt() != 25*ms {
		t.Fatalf("pre-window latch perturbed: v=%d at=%v", s.Read(), s.LatchedAt())
	}
	e.SetAt(200*ms, "sig", 0)
	k.Run(230 * ms)
	if s.Read() != 0 || s.LatchedAt() != 200*ms {
		t.Fatalf("post-window latch perturbed: v=%d at=%v", s.Read(), s.LatchedAt())
	}
}

func TestInjectJitterStaleCommitSuperseded(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: ms}},
	})
	s := b.Sensor("s")
	s.InjectJitter(0, time.Hour, 10*ms, 9)
	// Two rapid edges, one sample apart. Seed 9 delays the first commit
	// past the second, so the stale reading lands last; the sensor must
	// still end up holding the newest physical value.
	e.SetAt(10*ms, "sig", 1)
	e.SetAt(11*ms, "sig", 0)
	k.Run(100 * ms)
	if s.Read() != 0 {
		t.Fatalf("stale commit overwrote newer reading: %d", s.Read())
	}
}

func TestInjectJitterRejectsNonPositiveBound(t *testing.T) {
	_, _, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: 5 * ms}},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("InjectJitter with max<=0 must panic")
		}
	}()
	b.Sensor("s").InjectJitter(0, time.Hour, 0, 1)
}

// TestInjectJitterWindowEdgeSemantics pins the boundary behaviour of the
// jitter window (satellite S2): the window is half-open at commit-issue
// time — a commit issued at exactly `from` is jittered, one issued at
// exactly `from+duration` is not — and an in-flight commit whose delay
// carries it exactly to the window's end still reaches the latch.
func TestInjectJitterWindowEdgeSemantics(t *testing.T) {
	const (
		seed = uint64(9)
		max  = 8 * ms
		from = 10 * ms
	)
	// First draw of the jitter stream: the delay the 10ms commit gets.
	d1 := sim.NewRand(seed|1).Duration(0, max)
	if d1 <= 0 {
		t.Fatalf("test needs a positive first draw, got %v; pick another seed", d1)
	}

	// Case 1: commit issued at exactly `from` is jittered, and its landing
	// instant is exactly the window end (duration == d1). It must commit.
	k, e, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: 5 * ms}},
	})
	s := b.Sensor("s")
	s.InjectJitter(from, d1, max, seed) // window [10ms, 10ms+d1)
	e.SetAt(7*ms, "sig", 1)             // edge seen by the sample at 10ms
	k.Run(100 * ms)
	if s.Read() != 1 {
		t.Fatalf("in-flight commit landing at window end was lost: read=%d", s.Read())
	}
	if got := s.LatchedAt(); got != from+d1 {
		t.Fatalf("latch at %v, want exactly window end %v (= 10ms + first draw %v)", got, from+d1, d1)
	}

	// Case 2: commit issued at exactly `from+duration` is NOT jittered —
	// the latch lands on the sample instant itself.
	k, e, b = board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: 5 * ms}},
	})
	s = b.Sensor("s")
	s.InjectJitter(from, 10*ms, max, seed) // window [10ms, 20ms)
	e.SetAt(17*ms, "sig", 1)               // edge seen by the sample at 20ms == window end
	k.Run(20 * ms)
	if s.Read() != 1 || s.LatchedAt() != 20*ms {
		t.Fatalf("commit at window end must latch immediately: v=%d at=%v", s.Read(), s.LatchedAt())
	}
}

func TestInjectDropoutWindowAndResample(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Sensors: []SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: 5 * ms}},
	})
	s := b.Sensor("s")
	s.InjectDropout(10*ms, 12*ms) // readings lost in [10ms, 22ms)
	e.SetAt(12*ms, "sig", 1)      // edge inside the dropout window
	k.Run(21 * ms)
	if s.Read() != 0 {
		t.Fatal("reading reached the latch during the dropout window")
	}
	// Samples at 10, 15, 20ms ran but were discarded.
	if got := s.DroppedReads(); got != 3 {
		t.Fatalf("dropped reads = %d, want 3", got)
	}
	// The end-of-window resample latches the missed edge immediately, not
	// at the next sampling instant.
	k.Run(22 * ms)
	if s.Read() != 1 || s.LatchedAt() != 22*ms {
		t.Fatalf("end-of-window resample missed: v=%d at=%v", s.Read(), s.LatchedAt())
	}
}

// TestStuckAndDropoutWindows: where a stuck window and a dropout window
// overlap, readings reach the latch only once both are over, and the end
// of the later one resamples the signal.
func TestStuckAndDropoutWindows(t *testing.T) {
	cases := []struct {
		name               string
		stuckFrom, stuckTo sim.Time
		dropFrom, dropTo   sim.Time
		wantBefore         int64 // the latch just before wantAt
		wantAt             sim.Time
	}{
		// Stuck on [0, 20ms) ends inside a dropout on [10, 50ms): the
		// reading is lost until 50ms.
		{"stuck ends inside dropout", 0, 20 * ms, 10 * ms, 50 * ms, 0, 50 * ms},
		{"dropout ends inside stuck", 10 * ms, 50 * ms, 0, 20 * ms, 0, 50 * ms},
		{"stuck before dropout", 0, 20 * ms, 30 * ms, 50 * ms, 0, 20 * ms},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, e, b := board(t, BoardConfig{
				Sensors: []SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: 5 * ms}},
			})
			s := b.Sensor("s")
			s.InjectStuck(tc.stuckFrom, tc.stuckTo-tc.stuckFrom, 0)
			s.InjectDropout(tc.dropFrom, tc.dropTo-tc.dropFrom)
			e.SetAt(5*ms, "sig", 1)
			k.Run(tc.wantAt - 1)
			if s.Read() != tc.wantBefore {
				t.Fatalf("latch %d just before %v, want %d", s.Read(), tc.wantAt, tc.wantBefore)
			}
			k.Run(60 * ms)
			if s.Read() != 1 || s.LatchedAt() != tc.wantAt {
				t.Fatalf("latch %d at %v, want 1 at %v", s.Read(), s.LatchedAt(), tc.wantAt)
			}
		})
	}
}

func TestInjectLatencyWindowedAndKept(t *testing.T) {
	k, e, b := board(t, BoardConfig{
		Actuators: []ActuatorConfig{
			{Name: "m", Signal: "sig", Latency: 2 * ms},
			{Name: "m2", Signal: "sig2", Latency: 2 * ms},
		},
	})
	a := b.Actuator("m")
	a.InjectLatency(10*ms, 10*ms, 30*ms) // commands in [10ms, 20ms) take +30ms
	k.At(5*ms, func() { a.Write(1) })    // pre-window: nominal latency
	k.At(10*ms, func() { a.Write(2) })   // at exactly `from`: stretched
	k.Run(7 * ms)
	if e.Get("sig") != 1 {
		t.Fatalf("pre-window command delayed: sig=%d", e.Get("sig"))
	}
	k.Run(41 * ms)
	if e.Get("sig") != 1 {
		t.Fatal("stretched command landed early")
	}
	// The effect lands at 10+2+30 = 42ms, well past the window close at
	// 20ms: a command issued in-window keeps its stretched latency.
	k.Run(42 * ms)
	if e.Get("sig") != 2 {
		t.Fatalf("stretched command lost: sig=%d", e.Get("sig"))
	}
	// A command issued at exactly `from+duration` is outside the window.
	a2 := b.Actuator("m2")
	a2.InjectLatency(52*ms, 10*ms, 30*ms) // window [52ms, 62ms)
	k.At(62*ms, func() { a2.Write(3) })   // at exactly the window end: nominal
	k.Run(64 * ms)
	if e.Get("sig2") != 3 {
		t.Fatalf("command at window end stretched: sig2=%d", e.Get("sig2"))
	}
}

func TestInjectLatencyRejectsNegativeExtra(t *testing.T) {
	_, _, b := board(t, BoardConfig{
		Actuators: []ActuatorConfig{{Name: "m", Signal: "sig"}},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("InjectLatency with extra<0 must panic")
		}
	}()
	b.Actuator("m").InjectLatency(0, time.Second, -1)
}
