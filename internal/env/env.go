// Package env models the physical environment the implemented system is
// embedded in. Signals are named physical quantities (button contact
// voltage, motor speed, reservoir volume); changing one is an m-event or
// c-event at the environment/hardware boundary of the four-variables
// model.
//
// Scenarios script environmental behaviour (a patient pressing the bolus
// button at given instants); watchers let the testing framework record
// every signal change into a fourvar.Trace without perturbing the system.
package env

import (
	"fmt"
	"sort"

	"rmtest/internal/sim"
)

// Watcher observes a signal change.
type Watcher func(name string, old, new int64, at sim.Time)

// Signal is one named physical quantity.
type Signal struct {
	name     string
	value    int64
	changes  uint64
	watchers []Watcher
}

// Name returns the signal's name.
func (s *Signal) Name() string { return s.name }

// Value returns the current value.
func (s *Signal) Value() int64 { return s.value }

// Changes returns how many times the value actually changed.
func (s *Signal) Changes() uint64 { return s.changes }

// Environment is a registry of physical signals bound to a simulation
// kernel.
type Environment struct {
	k       *sim.Kernel
	signals map[string]*Signal
	names   []string
}

// New creates an empty environment on kernel k.
func New(k *sim.Kernel) *Environment {
	return &Environment{k: k, signals: make(map[string]*Signal)}
}

// Kernel returns the bound simulation kernel.
func (e *Environment) Kernel() *sim.Kernel { return e.k }

// Define registers a signal with an initial value. Defining the same name
// twice panics: signal identity is part of the experiment definition.
func (e *Environment) Define(name string, init int64) *Signal {
	if _, dup := e.signals[name]; dup {
		panic(fmt.Sprintf("env: signal %q already defined", name))
	}
	s := &Signal{name: name, value: init}
	e.signals[name] = s
	e.names = append(e.names, name)
	return s
}

// Lookup returns a defined signal or nil.
func (e *Environment) Lookup(name string) *Signal { return e.signals[name] }

// Names returns the defined signal names in sorted order.
func (e *Environment) Names() []string {
	out := append([]string(nil), e.names...)
	sort.Strings(out)
	return out
}

// Get returns the current value of a signal; it panics on undefined
// names, which always indicate a mis-wired experiment.
func (e *Environment) Get(name string) int64 {
	s := e.signals[name]
	if s == nil {
		panic(fmt.Sprintf("env: undefined signal %q", name))
	}
	return s.value
}

// Set changes a signal's value now. Setting the same value is a no-op
// (no event). Watchers run synchronously, in registration order.
func (e *Environment) Set(name string, v int64) {
	s := e.signals[name]
	if s == nil {
		panic(fmt.Sprintf("env: undefined signal %q", name))
	}
	if s.value == v {
		return
	}
	old := s.value
	s.value = v
	s.changes++
	for _, w := range s.watchers {
		w(name, old, v, e.k.Now())
	}
}

// SetAt schedules a signal change at the absolute instant at.
func (e *Environment) SetAt(at sim.Time, name string, v int64) {
	if e.Lookup(name) == nil {
		panic(fmt.Sprintf("env: undefined signal %q", name))
	}
	e.k.At(at, func() { e.Set(name, v) })
}

// PulseAt schedules a value for the signal at instant at, reverting to
// rest after width. It models momentary physical actions such as a
// button press.
func (e *Environment) PulseAt(at sim.Time, name string, v, rest int64, width sim.Time) {
	e.SetAt(at, name, v)
	e.SetAt(at+width, name, rest)
}

// Watch registers a watcher for one signal.
func (e *Environment) Watch(name string, w Watcher) {
	s := e.signals[name]
	if s == nil {
		panic(fmt.Sprintf("env: undefined signal %q", name))
	}
	s.watchers = append(s.watchers, w)
}

// WatchAll registers a watcher on every currently defined signal.
func (e *Environment) WatchAll(w Watcher) {
	for _, name := range e.names {
		e.Watch(name, w)
	}
}

// Integrator accumulates a quantity over time from a rate signal: each
// tick it adds rate * dt into a level signal, stopping at a floor. It
// models simple physical dynamics such as a medication reservoir draining
// while the pump motor runs.
type Integrator struct {
	env        *Environment
	rateSignal string
	level      string
	scalePerMS int64 // level units removed per millisecond per rate unit
	floor      int64
	ticker     *sim.Ticker
}

// NewIntegrator creates and starts an integrator that every period
// decreases `level` by rate*scalePerMS*period_ms, clamped at floor.
func (e *Environment) NewIntegrator(rateSignal, level string, scalePerMS, floor int64, period sim.Time) *Integrator {
	in := &Integrator{env: e, rateSignal: rateSignal, level: level, scalePerMS: scalePerMS, floor: floor}
	in.ticker = e.k.Periodic(period, period, func(uint64) {
		rate := e.Get(rateSignal)
		if rate <= 0 {
			return
		}
		cur := e.Get(level)
		if cur <= floor {
			return
		}
		dec := rate * scalePerMS * int64(period.Milliseconds())
		next := cur - dec
		if next < floor {
			next = floor
		}
		e.Set(level, next)
	})
	return in
}

// Stop halts the integrator.
func (in *Integrator) Stop() { in.ticker.Stop() }
