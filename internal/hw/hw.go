// Package hw simulates the target hardware platform: sensors and
// actuators with their device drivers. It is the Input-Device /
// Output-Device layer of the four-variables model — the code that
// converts m-events into i-events and o-events into c-events — and the
// source of the input and output delays M-testing measures.
//
// A Sensor samples an environment signal on a fixed period from time zero
// (a sampling routine in the paper's terms), optionally debouncing, and
// latches the result for tasks to read. The sensors of a board that share
// a period form a bank on one sim.Ticker, and each tick samples the
// members in board order. That is exact: a sample reads only its own
// signal and writes only its own latch, and the only event it can
// schedule is its own jitter commit, so samples of different sensors
// commute and nothing else can fall between two members' samples at one
// instant. An Actuator accepts commands from tasks and drives an
// environment signal after its actuation latency.
package hw

import (
	"fmt"
	"sort"

	"rmtest/internal/env"
	"rmtest/internal/sim"
)

// SensorConfig describes one input device.
type SensorConfig struct {
	// Name identifies the sensor on the board.
	Name string
	// Signal is the monitored environment signal the sensor observes.
	Signal string
	// SamplePeriod is the driver's sampling period; it must be positive.
	// The first sample runs at time zero.
	SamplePeriod sim.Time
	// Debounce requires the raw value to be stable for this many
	// consecutive samples before it is latched (0 or 1 = no debouncing).
	Debounce int
	// ReadCost is the CPU cost a task pays per Read of the latch,
	// modelling register access through the driver. The platform layer
	// charges it; the sensor only exposes the value.
	ReadCost sim.Time
}

// Sensor is a simulated input device.
type Sensor struct {
	cfg     SensorConfig
	env     *env.Environment
	sig     *env.Signal // cfg.Signal, resolved once
	latched int64
	// debounce state
	candidate int64
	stable    int
	// bank is the ticker group the sensor samples with. drift is a clock
	// drift recorded while the bank is shared; the sensor leaves the bank
	// at its next tick if the drift is still set (SetDrift).
	bank      *bank
	drift     int64
	samples   uint64
	latchedAt sim.Time
	// fault injection: while the window is active the sensor reports
	// stuckValue regardless of the physical signal.
	stuckUntil sim.Time
	stuckValue int64
	stuck      bool
	// jitter fault injection: while the window is active every latch
	// commit is deferred by a bounded pseudo-random delay.
	jitFrom    sim.Time
	jitTo      sim.Time
	jitMax     sim.Time
	jitRng     *sim.Rand
	jitSeq     uint64 // commits issued
	jitApplied uint64 // highest commit that reached the latch
	jitPending int64  // value of the newest in-flight commit
	// dropout fault injection: while the window is active sampling
	// routines run but their readings are discarded before the latch.
	dropping     bool
	droppedReads uint64
}

// Name returns the sensor name.
func (s *Sensor) Name() string { return s.cfg.Name }

// Config returns the sensor configuration.
func (s *Sensor) Config() SensorConfig { return s.cfg }

// Read returns the latched value. The platform layer charges ReadCost to
// the calling task.
func (s *Sensor) Read() int64 { return s.latched }

// LatchedAt returns when the latch last changed.
func (s *Sensor) LatchedAt() sim.Time { return s.latchedAt }

// Samples returns how many sampling-routine invocations have run.
func (s *Sensor) Samples() uint64 { return s.samples }

// InjectStuck forces the sensor to report value from instant `from` for
// `duration`, regardless of the physical signal — a stuck contact or a
// shorted line. Failure injection is part of the testing story: a stuck
// input manifests as MAX verdicts that M-testing localises to the
// Input-Device layer.
func (s *Sensor) InjectStuck(from, duration sim.Time, value int64) {
	k := s.env.Kernel()
	k.At(from, func() {
		s.stuck = true
		s.stuckUntil = from + duration
		s.stuckValue = value
		s.jitApplied = s.jitSeq // a forced latch supersedes in-flight commits
		s.latched = value
		s.latchedAt = k.Now()
	})
	k.At(from+duration, func() {
		s.stuck = false
		if s.dropping {
			return // readings are lost until the dropout's end resamples
		}
		// Resample the physical signal immediately.
		s.jitApplied = s.jitSeq
		if v := s.sig.Value(); s.latched != v {
			s.latched = v
			s.latchedAt = k.Now()
		}
	})
}

// InjectDropout makes the sensor lose every reading from instant `from`
// for `duration` — a flaky connector or a saturated acquisition bus. The
// sampling routine keeps running (Samples still advances) but nothing
// reaches the latch, so an edge occurring inside the window is only seen
// by the resample at the window's end. Like InjectStuck, the fault
// manifests as Input-Delay damage: the m-event exists but its i-event is
// late or missing entirely.
func (s *Sensor) InjectDropout(from, duration sim.Time) {
	k := s.env.Kernel()
	k.At(from, func() { s.dropping = true })
	k.At(from+duration, func() {
		s.dropping = false
		// Resample the physical signal immediately so an edge that
		// occurred during the dropout is latched at the window's end.
		if s.stuck {
			return
		}
		s.jitApplied = s.jitSeq
		if v := s.sig.Value(); s.latched != v {
			s.latched = v
			s.latchedAt = k.Now()
		}
	})
}

// DroppedReads counts sampling-routine readings lost to an injected
// dropout fault.
func (s *Sensor) DroppedReads() uint64 { return s.droppedReads }

// SetDrift skews the sensor's sampling clock by ppm parts per million
// (sim.DriftedPeriod) from the next re-arm of its ticker on, as
// sim.Ticker.SetDrift does; SetDrift(0) clears it. A sensor alone in its
// bank skews the bank's ticker. A sensor that shares its bank records the
// drift instead and, if it is still set at the bank's next tick, leaves
// the bank there for a ticker of its own: that tick is when its own
// ticker would have re-armed, so a drift cleared before it has no effect.
func (s *Sensor) SetDrift(ppm int64) {
	if len(s.bank.members) == 1 {
		s.bank.ticker.SetDrift(ppm)
		return
	}
	s.drift = ppm
}

// bank is the sensors of one board that sample on one period, on one
// ticker.
type bank struct {
	k       *sim.Kernel
	period  sim.Time
	ticker  *sim.Ticker
	members []*Sensor // in board order
}

// newBank starts a bank whose first tick is at start.
func newBank(k *sim.Kernel, start, period sim.Time) *bank {
	b := &bank{k: k, period: period}
	b.ticker = k.Periodic(start, period, b.tick)
	return b
}

// tick samples every member in board order. A member with a recorded
// drift leaves first: it arms its own ticker at now plus the drifted
// period and only then samples, because its own ticker would have
// re-armed before sampling, and a jitter commit the sample schedules for
// exactly the drifted instant must fire after that tick. A bank whose
// members have all left stops.
func (b *bank) tick(uint64) {
	kept := b.members[:0]
	for _, s := range b.members {
		if s.drift != 0 {
			own := newBank(b.k, b.k.Now()+sim.DriftedPeriod(b.period, s.drift), b.period)
			own.ticker.SetDrift(s.drift)
			own.members = []*Sensor{s}
			s.bank, s.drift = own, 0
		} else {
			kept = append(kept, s)
		}
		s.sample()
	}
	clear(b.members[len(kept):])
	b.members = kept
	if len(kept) == 0 {
		b.ticker.Stop()
	}
}

// InjectJitter perturbs the sensor's sample latency from instant `from`
// for `duration`: every latch commit in the window lands after an extra
// pseudo-random delay in [0, max] — a degraded ISR, a saturated bus, or
// scheme-3-style scheduling interference at the input device. The stream
// is seeded, so a given (seed, schedule) pair perturbs identically on
// every run; testing layers rely on that determinism. Delayed commits can
// overtake one another; the device keeps the newest reading (a stale
// conversion result never overwrites a fresher one).
//
// Window semantics are half-open at issue time: a commit issued at
// exactly `from` is jittered, one issued at exactly `from+duration` is
// not. An in-flight commit issued inside the window still reaches the
// latch even if its delay carries it to or past the window's end — the
// conversion was already in the pipe when the fault cleared.
func (s *Sensor) InjectJitter(from, duration, max sim.Time, seed uint64) {
	if max <= 0 {
		panic(fmt.Sprintf("hw: InjectJitter with non-positive bound %v", max))
	}
	s.jitFrom = from
	s.jitTo = from + duration
	s.jitMax = max
	s.jitRng = sim.NewRand(seed | 1)
}

func (s *Sensor) jittering(now sim.Time) bool {
	return s.jitTo > s.jitFrom && now >= s.jitFrom && now < s.jitTo
}

// newestVal is the value the latch will eventually hold: the newest
// in-flight commit if one is pending, the latch otherwise. Edge
// detection compares against it so a deferred commit does not hide a
// subsequent edge.
func (s *Sensor) newestVal() int64 {
	if s.jitSeq > s.jitApplied {
		return s.jitPending
	}
	return s.latched
}

// commit latches v — immediately in normal operation, after the bounded
// random delay while a jitter fault is active.
func (s *Sensor) commit(v int64) {
	k := s.env.Kernel()
	if !s.jittering(k.Now()) {
		s.jitApplied = s.jitSeq // direct latch supersedes in-flight commits
		if s.latched != v {
			s.latched = v
			s.latchedAt = k.Now()
		}
		return
	}
	s.jitSeq++
	seq := s.jitSeq
	s.jitPending = v
	k.After(s.jitRng.Duration(0, s.jitMax), func() {
		if seq <= s.jitApplied {
			return // a newer commit already reached the latch
		}
		s.jitApplied = seq
		if s.stuck {
			return
		}
		if s.latched != v {
			s.latched = v
			s.latchedAt = k.Now()
		}
	})
}

// sample is one sampling-routine invocation.
func (s *Sensor) sample() {
	s.samples++
	if s.stuck {
		return
	}
	if s.dropping {
		s.droppedReads++
		return
	}
	v := s.sig.Value()
	need := s.cfg.Debounce
	if need <= 1 {
		if s.newestVal() != v {
			s.commit(v)
		}
		return
	}
	if v != s.candidate {
		s.candidate = v
		s.stable = 1
		return
	}
	if s.stable < need {
		s.stable++
	}
	if s.stable >= need && s.newestVal() != v {
		s.commit(v)
	}
}

// ActuatorConfig describes one output device.
type ActuatorConfig struct {
	// Name identifies the actuator on the board.
	Name string
	// Signal is the controlled environment signal the actuator drives.
	Signal string
	// Latency is the physical delay from command to effect (motor
	// spin-up, relay switching).
	Latency sim.Time
	// WriteCost is the CPU cost a task pays per command write; charged by
	// the platform layer.
	WriteCost sim.Time
}

// Actuator is a simulated output device.
type Actuator struct {
	cfg      ActuatorConfig
	env      *env.Environment
	commands uint64
	lastCmd  int64
	deadFrom sim.Time
	deadTo   sim.Time
	ignored  uint64
	// latency excursion fault: commands issued inside the window take
	// extra time on top of the configured latency.
	slowFrom  sim.Time
	slowTo    sim.Time
	slowExtra sim.Time
}

// Name returns the actuator name.
func (a *Actuator) Name() string { return a.cfg.Name }

// Config returns the actuator configuration.
func (a *Actuator) Config() ActuatorConfig { return a.cfg }

// Commands returns how many commands have been issued.
func (a *Actuator) Commands() uint64 { return a.commands }

// InjectDead makes the actuator ignore commands from instant `from` for
// `duration` — a failed driver stage or a blown fuse. Commands during the
// window are counted in IgnoredCommands and have no physical effect, so a
// response produced by CODE(M) never becomes a c-event: the MAX mode
// M-testing attributes to the output path.
func (a *Actuator) InjectDead(from, duration sim.Time) {
	a.deadFrom = from
	a.deadTo = from + duration
}

// IgnoredCommands counts commands dropped by an injected fault.
func (a *Actuator) IgnoredCommands() uint64 { return a.ignored }

// InjectLatency stretches the actuator's command-to-effect delay by
// `extra` for commands issued from instant `from` for `duration` — a
// tired motor, a cold relay, a congested field bus. A command issued
// inside the window keeps its stretched latency even if the physical
// effect lands after the window closes; commands issued outside the
// window are unaffected. Output-Delay damage in the paper's terms.
func (a *Actuator) InjectLatency(from, duration, extra sim.Time) {
	if extra < 0 {
		panic(fmt.Sprintf("hw: InjectLatency with negative extra %v", extra))
	}
	a.slowFrom = from
	a.slowTo = from + duration
	a.slowExtra = extra
}

func (a *Actuator) dead(now sim.Time) bool {
	return a.deadTo > a.deadFrom && now >= a.deadFrom && now < a.deadTo
}

// latency is the command-to-effect delay for a command issued now.
func (a *Actuator) latency(now sim.Time) sim.Time {
	d := a.cfg.Latency
	if a.slowTo > a.slowFrom && now >= a.slowFrom && now < a.slowTo {
		d += a.slowExtra
	}
	return d
}

// Write commands the actuator to drive its signal to v. The physical
// effect (the c-event) appears after the configured latency. Writing the
// current commanded value again is a no-op.
func (a *Actuator) Write(v int64) {
	k := a.env.Kernel()
	if a.dead(k.Now()) {
		a.ignored++
		return
	}
	if a.commands > 0 && a.lastCmd == v {
		return
	}
	a.lastCmd = v
	a.commands++
	if d := a.latency(k.Now()); d > 0 {
		k.After(d, func() { a.env.Set(a.cfg.Signal, v) })
	} else {
		a.env.Set(a.cfg.Signal, v)
	}
}

// BoardConfig wires a set of devices to environment signals.
type BoardConfig struct {
	Name      string
	Sensors   []SensorConfig
	Actuators []ActuatorConfig
}

// Board is the assembled hardware platform.
type Board struct {
	cfg       BoardConfig
	env       *env.Environment
	sensors   map[string]*Sensor
	actuators map[string]*Actuator
}

// NewBoard builds the board on an environment, defining any referenced
// signals that are not yet defined (with initial value 0) and starting
// every sensor's sampling routine: one ticker per sampling period, which
// the period's first sensor in board order starts. A device without a
// name or a signal, a duplicate name, or a sensor without a positive
// sample period is an error.
func NewBoard(e *env.Environment, cfg BoardConfig) (*Board, error) {
	b := &Board{
		cfg:       cfg,
		env:       e,
		sensors:   make(map[string]*Sensor),
		actuators: make(map[string]*Actuator),
	}
	var banks []*bank // shipped boards have a handful of sensors, so a scan finds a period's bank
	for _, sc := range cfg.Sensors {
		if sc.Name == "" || sc.Signal == "" {
			return nil, fmt.Errorf("hw: sensor needs name and signal: %+v", sc)
		}
		if sc.SamplePeriod <= 0 {
			return nil, fmt.Errorf("hw: sensor %q needs a positive sample period, got %v", sc.Name, sc.SamplePeriod)
		}
		if _, dup := b.sensors[sc.Name]; dup {
			return nil, fmt.Errorf("hw: duplicate sensor %q", sc.Name)
		}
		sig := e.Lookup(sc.Signal)
		if sig == nil {
			sig = e.Define(sc.Signal, 0)
		}
		raw := sig.Value()
		s := &Sensor{cfg: sc, env: e, sig: sig, latched: raw, candidate: raw}
		for _, bk := range banks {
			if bk.period == sc.SamplePeriod {
				s.bank = bk
				break
			}
		}
		if s.bank == nil {
			s.bank = newBank(e.Kernel(), 0, sc.SamplePeriod)
			banks = append(banks, s.bank)
		}
		s.bank.members = append(s.bank.members, s)
		b.sensors[sc.Name] = s
	}
	for _, ac := range cfg.Actuators {
		if ac.Name == "" || ac.Signal == "" {
			return nil, fmt.Errorf("hw: actuator needs name and signal: %+v", ac)
		}
		if _, dup := b.actuators[ac.Name]; dup {
			return nil, fmt.Errorf("hw: duplicate actuator %q", ac.Name)
		}
		if e.Lookup(ac.Signal) == nil {
			e.Define(ac.Signal, 0)
		}
		b.actuators[ac.Name] = &Actuator{cfg: ac, env: e}
	}
	return b, nil
}

// LookupSensor returns a sensor by name, or nil when the board has no
// such sensor. Fault injection uses it to validate targets gracefully.
func (b *Board) LookupSensor(name string) *Sensor { return b.sensors[name] }

// LookupActuator returns an actuator by name, or nil when the board has
// no such actuator.
func (b *Board) LookupActuator(name string) *Actuator { return b.actuators[name] }

// Sensor returns a sensor by name; it panics on unknown names.
func (b *Board) Sensor(name string) *Sensor {
	s := b.sensors[name]
	if s == nil {
		panic(fmt.Sprintf("hw: unknown sensor %q", name))
	}
	return s
}

// Actuator returns an actuator by name; it panics on unknown names.
func (b *Board) Actuator(name string) *Actuator {
	a := b.actuators[name]
	if a == nil {
		panic(fmt.Sprintf("hw: unknown actuator %q", name))
	}
	return a
}

// SensorNames returns all sensor names, sorted.
func (b *Board) SensorNames() []string {
	out := make([]string, 0, len(b.sensors))
	for n := range b.sensors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ActuatorNames returns all actuator names, sorted.
func (b *Board) ActuatorNames() []string {
	out := make([]string, 0, len(b.actuators))
	for n := range b.actuators {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Environment returns the environment the board is wired to.
func (b *Board) Environment() *env.Environment { return b.env }
