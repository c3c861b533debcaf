// Package faults is the deterministic fault-injection subsystem: a Plan
// of seeded, windowed fault activations compiled onto the virtual-time
// kernel of an assembled platform.System before its run starts.
//
// The fault taxonomy spans every layer the paper's delay-segment
// decomposition measures, so each class has a delay segment it is
// expected to damage (Class.ExpectedSegment): sensor faults push the
// Input-Delay, actuator faults the Output-Delay, RTOS faults (WCET
// overruns, ISR storms) the CODE(M)-Delay, and transport faults (queue
// drops, sampling-clock drift) starve the input path. The attribution
// experiment (rmtest.FaultSweep) closes the loop: it injects one class
// at a time and checks that M-testing blames the intended segment —
// turning the fault layer into a self-test of the diagnosis layer.
//
// Determinism: a Plan carries no randomness of its own. Apply derives
// one sub-seed per fault from the caller's seed with the same splitmix64
// stream the campaign engine uses, so a (plan, seed) pair perturbs
// identically on every run, at any worker count.
package faults

import (
	"fmt"
	"math"

	"rmtest/internal/core"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// Class enumerates the fault taxonomy, one entry per injection
// mechanism across the hardware, RTOS and clock layers.
type Class int

// Fault classes. The comment after each names the layer it lives in and
// the delay segment it is expected to damage.
const (
	// SensorStuck forces a sensor's latch to a constant — input device;
	// stimuli vanish entirely (MAX verdicts localised to the input path).
	SensorStuck Class = iota
	// SensorDropout discards sensor readings before the latch — input
	// device; Input-Delay (edges surface only at the window's end).
	SensorDropout
	// SensorLatency defers latch commits by a bounded seeded random
	// delay — input device; Input-Delay.
	SensorLatency
	// ActuatorLatency stretches command-to-effect delay — output
	// device; Output-Delay.
	ActuatorLatency
	// ActuatorDead makes an actuator ignore commands — output device;
	// responses vanish (MAX verdicts localised to the output path).
	ActuatorDead
	// TaskOverrun scales a task's compute bursts — RTOS;
	// CODE(M)-Delay when aimed at the step-function task.
	TaskOverrun
	// ISRStorm fires spurious interrupts that steal CPU — RTOS; the
	// damage is board-wide and diffuse (every task stretches), so no
	// single segment is expected: the attribution experiment's negative
	// control.
	ISRStorm
	// QueueDrop loses every n-th value in transit to a queue — RTOS
	// transport; Input-Delay (the chart sees the stimulus a full
	// producer period late, or never).
	QueueDrop
	// ClockDrift skews a sensor's sampling clock — timebase;
	// Input-Delay (samples land ever later than the physical edge).
	ClockDrift
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case SensorStuck:
		return "sensor-stuck"
	case SensorDropout:
		return "sensor-dropout"
	case SensorLatency:
		return "sensor-latency"
	case ActuatorLatency:
		return "actuator-latency"
	case ActuatorDead:
		return "actuator-dead"
	case TaskOverrun:
		return "task-overrun"
	case ISRStorm:
		return "isr-storm"
	case QueueDrop:
		return "queue-drop"
	case ClockDrift:
		return "clock-drift"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ExpectedSegment returns the delay segment the class is expected to
// damage — the oracle the fault-attribution experiment checks M-testing
// against. Classes that suppress the response outright (stuck sensors,
// dead actuators) still have a defined locality: M-testing reports them
// as MAX with the loss localised to the input or output path. ISRStorm
// has no single-segment expectation — its CPU theft stretches every
// task — so it maps to SegNone and serves as the experiment's negative
// control.
func (c Class) ExpectedSegment() core.Segment {
	switch c {
	case SensorStuck, SensorDropout, SensorLatency, QueueDrop, ClockDrift:
		return core.SegInput
	case ActuatorLatency, ActuatorDead:
		return core.SegOutput
	case TaskOverrun:
		return core.SegCode
	}
	return core.SegNone
}

// Fault is one windowed fault activation. Class selects the mechanism;
// Target names the affected component (sensor, actuator, task or queue
// — unused for ISRStorm, which is board-wide); Start/Duration bound the
// activation window [Start, Start+Duration). The remaining fields are
// class-specific and ignored by the other classes.
type Fault struct {
	Class    Class
	Target   string
	Start    sim.Time
	Duration sim.Time

	// Value is the latched constant for SensorStuck.
	Value int64
	// Max is the jitter bound for SensorLatency and the extra
	// command-to-effect delay for ActuatorLatency.
	Max sim.Time
	// Num/Den scale compute bursts for TaskOverrun (e.g. 3/1 triples
	// every burst issued inside the window).
	Num, Den int64
	// Period/Cost shape ISRStorm: one interrupt of CPU cost Cost every
	// Period.
	Period, Cost sim.Time
	// Every selects QueueDrop cadence: every Every-th send in the
	// window is lost (1 = every send).
	Every int
	// PPM skews the sampling clock for ClockDrift, in parts per
	// million; positive slows the clock down.
	PPM int64
}

func (f Fault) String() string {
	if f.Target == "" {
		return fmt.Sprintf("%v[%v+%v]", f.Class, f.Start, f.Duration)
	}
	return fmt.Sprintf("%v(%s)[%v+%v]", f.Class, f.Target, f.Start, f.Duration)
}

// validate checks the window and class-specific parameters.
func (f Fault) validate() error {
	if f.Duration <= 0 {
		return fmt.Errorf("non-positive duration %v", f.Duration)
	}
	if f.Start < 0 {
		return fmt.Errorf("negative start %v", f.Start)
	}
	if f.Duration > math.MaxInt64-f.Start {
		return fmt.Errorf("window end overflows: start %v + duration %v", f.Start, f.Duration)
	}
	switch f.Class {
	case SensorStuck, SensorDropout, ActuatorDead:
	case SensorLatency, ActuatorLatency:
		if f.Max <= 0 {
			return fmt.Errorf("non-positive Max %v", f.Max)
		}
	case TaskOverrun:
		if f.Num <= 0 || f.Den <= 0 {
			return fmt.Errorf("non-positive scale %d/%d", f.Num, f.Den)
		}
	case ISRStorm:
		if f.Period <= 0 {
			return fmt.Errorf("non-positive Period %v", f.Period)
		}
		if f.Cost <= 0 {
			return fmt.Errorf("non-positive Cost %v", f.Cost)
		}
	case QueueDrop:
		if f.Every < 1 {
			return fmt.Errorf("Every must be >= 1, got %d", f.Every)
		}
	case ClockDrift:
		if f.PPM == 0 {
			return fmt.Errorf("zero PPM drift")
		}
		if f.PPM <= -1_000_000 {
			return fmt.Errorf("drift %d PPM gives a non-positive period", f.PPM)
		}
	default:
		return fmt.Errorf("unknown class %v", f.Class)
	}
	needTarget := f.Class != ISRStorm
	if needTarget && f.Target == "" {
		return fmt.Errorf("missing target")
	}
	return nil
}

// Plan is a named list of fault activations, applied in order.
type Plan struct {
	Name   string
	Faults []Fault
}

// Apply compiles the plan onto an assembled system before its run
// starts: window-edge events are scheduled on the system's kernel and
// per-component fault state is armed. seed feeds the seeded classes
// (SensorLatency); one sub-seed per fault is drawn in order from a
// splitmix64 stream, so a fault's randomness does not depend on how
// many faults precede it being seeded vs unseeded.
//
// Apply validates every fault before touching the system, so a plan
// that errors injects nothing.
func (p Plan) Apply(sys *platform.System, seed uint64) error {
	for i, f := range p.Faults {
		if err := p.check(sys, f); err != nil {
			return fmt.Errorf("faults: plan %q fault %d %v: %w", p.Name, i, f, err)
		}
	}
	rng := sim.NewRand(seed)
	for _, f := range p.Faults {
		p.arm(sys, f, rng.Uint64())
	}
	return nil
}

// check validates f against the system's components.
func (p Plan) check(sys *platform.System, f Fault) error {
	if err := f.validate(); err != nil {
		return err
	}
	switch f.Class {
	case SensorStuck, SensorDropout, SensorLatency, ClockDrift:
		if sys.Board.LookupSensor(f.Target) == nil {
			return fmt.Errorf("unknown sensor %q", f.Target)
		}
	case ActuatorLatency, ActuatorDead:
		if sys.Board.LookupActuator(f.Target) == nil {
			return fmt.Errorf("unknown actuator %q", f.Target)
		}
	case TaskOverrun:
		if sys.Sched.TaskByName(f.Target) == nil {
			return fmt.Errorf("unknown task %q", f.Target)
		}
	case QueueDrop:
		if sys.Sched.Queue(f.Target) == nil {
			return fmt.Errorf("unknown queue %q", f.Target)
		}
	}
	return nil
}

// arm installs one validated fault.
func (p Plan) arm(sys *platform.System, f Fault, seed uint64) {
	switch f.Class {
	case SensorStuck:
		sys.Board.Sensor(f.Target).InjectStuck(f.Start, f.Duration, f.Value)
	case SensorDropout:
		sys.Board.Sensor(f.Target).InjectDropout(f.Start, f.Duration)
	case SensorLatency:
		sys.Board.Sensor(f.Target).InjectJitter(f.Start, f.Duration, f.Max, seed)
	case ActuatorLatency:
		sys.Board.Actuator(f.Target).InjectLatency(f.Start, f.Duration, f.Max)
	case ActuatorDead:
		sys.Board.Actuator(f.Target).InjectDead(f.Start, f.Duration)
	case TaskOverrun:
		sys.Sched.TaskByName(f.Target).InjectOverrun(f.Start, f.Duration, f.Num, f.Den)
	case ISRStorm:
		sys.Sched.InjectISRStorm(f.Start, f.Duration, f.Period, f.Cost)
	case QueueDrop:
		sys.Sched.Queue(f.Target).InjectDrop(f.Start, f.Duration, f.Every)
	case ClockDrift:
		s := sys.Board.Sensor(f.Target)
		sys.Kernel.At(f.Start, func() { s.SetDrift(f.PPM) })
		sys.Kernel.At(f.Start+f.Duration, func() { s.SetDrift(0) })
	}
}

// Prepare adapts a plan to the core.Runner Prepare hook: the plan is
// applied with the given seed after stimuli are scheduled, identically
// on every run. An Apply error panics — Prepare has no error
// channel; under the campaign engine the panic is isolated, counted as
// a failed run and the worker scratch discarded, which is the intended
// containment for a mis-targeted plan.
func Prepare(p Plan, seed uint64) func(*platform.System, core.TestCase) {
	return func(sys *platform.System, _ core.TestCase) {
		if err := p.Apply(sys, seed); err != nil {
			panic(err)
		}
	}
}
