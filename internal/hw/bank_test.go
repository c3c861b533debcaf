package hw

import (
	"fmt"
	"testing"
	"time"

	"rmtest/internal/env"
	"rmtest/internal/sim"
)

// bankedCase is a random board and the script run on it: signal edges,
// and stuck, dropout, jitter and drift windows on its sensors.
type bankedCase struct {
	sensors []SensorConfig
	edges   []bankedEdge
	faults  []bankedFault
}

// bankedSignals are the environment signals a bankedCase's sensors
// observe and its edges change.
var bankedSignals = []string{"a", "b", "c"}

type bankedEdge struct {
	at     sim.Time
	signal string
	value  int64
}

type bankedFaultKind int

const (
	faultStuck bankedFaultKind = iota
	faultDropout
	faultJitter
	faultDrift
)

type bankedFault struct {
	kind      bankedFaultKind
	sensor    int
	from, dur sim.Time
	value     int64    // stuck
	max       sim.Time // jitter
	seed      uint64   // jitter
	ppm       int64    // drift
}

// randomBankedCase draws 2–5 sensors over three signals, with periods
// from a set of three so that banks form and debounce 0–2, and a script
// over 80ms. Instants lie on a 250µs grid, which every period divides,
// so many land on a tick, and a quarter are nudged off it by up to 1µs.
// Drift windows include negative drift, a ±1ppm drift (it leaves the
// 500µs period unchanged, so a leaving sensor ticks with its old bank), a
// drift set just after a tick and cleared before the next, and every
// member of a bank drifting.
func randomBankedCase(seed uint64) bankedCase {
	const us = time.Microsecond
	r := sim.NewRand(seed)
	periods := []sim.Time{500 * us, ms, 1500 * us}
	signals := bankedSignals
	var c bankedCase
	for i := range 2 + r.Intn(4) {
		c.sensors = append(c.sensors, SensorConfig{
			Name: fmt.Sprintf("s%d", i), Signal: signals[r.Intn(len(signals))],
			SamplePeriod: periods[r.Intn(len(periods))], Debounce: r.Intn(3),
		})
	}
	instant := func() sim.Time {
		at := sim.Time(r.Intn(320)) * 250 * us
		if r.Bool(0.25) {
			at += sim.Time(1 + r.Intn(1000))
		}
		return at
	}
	spans := []sim.Time{1, 100 * us, 700 * us, 2 * ms, 10 * ms, 40 * ms}
	span := func() sim.Time { return spans[r.Intn(len(spans))] }
	ppms := []int64{-500_000, -250_000, -1, 1, 250_000, 1_000_000, 3_000_000}
	drift := func(i int) bankedFault {
		f := bankedFault{kind: faultDrift, sensor: i, from: instant(), dur: span(), ppm: ppms[r.Intn(len(ppms))]}
		if r.Bool(0.2) { // set just after a tick, cleared before the next
			p := c.sensors[i].SamplePeriod
			f.from, f.dur = sim.Time(r.Intn(80))*p+1, p/2
		}
		return f
	}
	for range r.Intn(12) {
		c.edges = append(c.edges, bankedEdge{instant(), signals[r.Intn(len(signals))], int64(r.Intn(3))})
	}
	for range r.Intn(7) {
		i := r.Intn(len(c.sensors))
		switch kind := bankedFaultKind(r.Intn(4)); kind {
		case faultStuck:
			c.faults = append(c.faults, bankedFault{kind: kind, sensor: i, from: instant(), dur: span(), value: int64(r.Intn(3))})
		case faultDropout:
			c.faults = append(c.faults, bankedFault{kind: kind, sensor: i, from: instant(), dur: span()})
		case faultJitter:
			maxes := []sim.Time{1, 50 * us, 400 * us, 2 * ms}
			c.faults = append(c.faults, bankedFault{kind: kind, sensor: i, from: instant(), dur: span(), max: maxes[r.Intn(len(maxes))], seed: r.Uint64()})
		case faultDrift:
			c.faults = append(c.faults, drift(i))
		}
	}
	if r.Bool(0.3) { // every member of the first sensor's bank drifts
		for i, sc := range c.sensors {
			if sc.SamplePeriod == c.sensors[0].SamplePeriod {
				c.faults = append(c.faults, drift(i))
			}
		}
	}
	return c
}

// build runs the script's set-up on a fresh kernel: one board with every
// sensor (banked), or one board per sensor, each alone on its ticker as
// every sensor was before banking. It returns the sensors in board order.
func (c bankedCase) build(t testing.TB, banked bool) (*sim.Kernel, []*Sensor) {
	t.Helper()
	k := sim.New()
	e := env.New(k)
	for _, sig := range bankedSignals {
		e.Define(sig, 0)
	}
	boards := [][]SensorConfig{c.sensors}
	if !banked {
		boards = nil
		for _, sc := range c.sensors {
			boards = append(boards, []SensorConfig{sc})
		}
	}
	var ss []*Sensor
	for _, cfg := range boards {
		b, err := NewBoard(e, BoardConfig{Sensors: cfg})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range cfg {
			ss = append(ss, b.Sensor(sc.Name))
		}
	}
	for _, ed := range c.edges {
		e.SetAt(ed.at, ed.signal, ed.value)
	}
	for _, f := range c.faults {
		s := ss[f.sensor]
		switch f.kind {
		case faultStuck:
			s.InjectStuck(f.from, f.dur, f.value)
		case faultDropout:
			s.InjectDropout(f.from, f.dur)
		case faultJitter:
			s.InjectJitter(f.from, f.dur, f.max, f.seed)
		case faultDrift:
			k.At(f.from, func() { s.SetDrift(f.ppm) })
			k.At(f.from+f.dur, func() { s.SetDrift(0) })
		}
	}
	return k, ss
}

// checkBanked runs seed's case banked and with one ticker per sensor and
// requires every sensor to agree on Read, LatchedAt, Samples and
// DroppedReads on a 100µs grid over 80ms. It reports whether the board
// had a shared bank and whether a sensor left one.
func checkBanked(t testing.TB, seed uint64) (shared, left bool) {
	t.Helper()
	c := randomBankedCase(seed)
	kb, banked := c.build(t, true)
	kr, ref := c.build(t, false)
	start := make([]*bank, len(banked))
	for i, s := range banked {
		start[i] = s.bank
		shared = shared || len(s.bank.members) > 1
	}
	for at := sim.Time(0); at <= 80*ms; at += 100 * time.Microsecond {
		kb.Run(at)
		kr.Run(at)
		for i, b := range banked {
			r := ref[i]
			if b.Read() != r.Read() || b.LatchedAt() != r.LatchedAt() || b.Samples() != r.Samples() || b.DroppedReads() != r.DroppedReads() {
				t.Fatalf("seed %d, at %v, sensor %s: banked read %d latched at %v after %d samples, %d dropped; "+
					"one ticker per sensor read %d latched at %v after %d samples, %d dropped\ncase: %+v",
					seed, at, b.Name(), b.Read(), b.LatchedAt(), b.Samples(), b.DroppedReads(),
					r.Read(), r.LatchedAt(), r.Samples(), r.DroppedReads(), c)
			}
		}
	}
	for i, s := range banked {
		left = left || s.bank != start[i]
	}
	return shared, left
}

// TestBankedSamplingMatchesOneTickerPerSensor: sampling a board's sensors
// in banks, one ticker per period, observes exactly what one ticker per
// sensor observes, on 2,000 random boards and scripts.
func TestBankedSamplingMatchesOneTickerPerSensor(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 200
	}
	var shared, left int
	for seed := range uint64(seeds) {
		s, l := checkBanked(t, seed)
		if s {
			shared++
		}
		if l {
			left++
		}
	}
	t.Logf("%d of %d boards had a shared bank; a sensor left its bank on %d", shared, seeds, left)
	if shared < seeds/2 || left < seeds/20 {
		t.Fatalf("only %d of %d boards had a shared bank and %d a sensor that left it: the generator no longer exercises banking", shared, seeds, left)
	}
}

// FuzzBankedSampling is TestBankedSamplingMatchesOneTickerPerSensor's
// check on fuzzed seeds.
func FuzzBankedSampling(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) { checkBanked(t, seed) })
}

// TestSensorLeavesBankWhereItsTickerWouldRearm: a drift on a sensor that
// shares its bank takes effect at the bank's next tick, the instant its
// own ticker would have re-armed; a drift cleared before that tick has no
// effect; and a bank whose members have all left stops.
func TestSensorLeavesBankWhereItsTickerWouldRearm(t *testing.T) {
	k, _, b := board(t, BoardConfig{Sensors: []SensorConfig{
		{Name: "x", Signal: "a", SamplePeriod: 5 * ms},
		{Name: "y", Signal: "b", SamplePeriod: 5 * ms},
	}})
	x, y := b.Sensor("x"), b.Sensor("y")
	shared := x.bank
	k.At(6*ms, func() { y.SetDrift(1_000_000) }) // recorded, cleared before the tick at 10ms
	k.At(7*ms, func() { y.SetDrift(0) })
	k.At(11*ms, func() { x.SetDrift(1_000_000) }) // x leaves at 15ms; its next sample is at 25ms
	k.Run(24 * ms)
	if x.Samples() != 4 || y.Samples() != 5 {
		t.Fatalf("samples by 24ms: x %d, y %d; want 4 (0, 5, 10, 15ms) and 5", x.Samples(), y.Samples())
	}
	if x.bank == shared || len(shared.members) != 1 || shared.members[0] != y {
		t.Fatal("x did not leave the bank at its next tick")
	}
	k.Run(25 * ms)
	if x.Samples() != 5 {
		t.Fatalf("x sampled %d times by 25ms, want 5", x.Samples())
	}
	// y is now alone in the bank, so its drift goes onto the bank's ticker.
	k.At(26*ms, func() { y.SetDrift(1_000_000) })
	k.Run(39 * ms) // y samples at 30ms and re-arms 10ms later
	if y.Samples() != 7 || y.bank != shared {
		t.Fatalf("y sampled %d times by 39ms in bank %p, want 7 in its bank %p", y.Samples(), y.bank, shared)
	}
	k.Run(40 * ms)
	if y.Samples() != 8 {
		t.Fatalf("y sampled %d times by 40ms, want 8", y.Samples())
	}

	// Both members of a bank drift: both leave and the bank stops.
	k2, _, b2 := board(t, BoardConfig{Sensors: []SensorConfig{
		{Name: "x", Signal: "a", SamplePeriod: 5 * ms},
		{Name: "y", Signal: "b", SamplePeriod: 5 * ms},
	}})
	both := b2.Sensor("x").bank
	k2.At(ms, func() { b2.Sensor("x").SetDrift(-500_000); b2.Sensor("y").SetDrift(-500_000) })
	k2.Run(5 * ms)
	if len(both.members) != 0 || k2.Pending() != 2 {
		t.Fatalf("after both members left: %d members, %d pending events; want 0 and their 2 own ticks", len(both.members), k2.Pending())
	}
}
