// Package platform assembles implemented systems: the generated code
// CODE(M) integrated with the simulated RTOS and hardware board under one
// of the paper's three implementation schemes (§IV).
//
// A System owns the whole vertical stack — simulation kernel, RTOS,
// environment, board, executor — plus the four-variable trace probes the
// testing layers read. Instrumentation is layered exactly as the paper
// prescribes: the R level records only m- and c-events at the
// hardware/environment boundary; the M level additionally records i- and
// o-events at the CODE(M) boundary and per-transition delays inside the
// generated step function. Probes cost nothing in virtual time, so the
// two levels observe identical executions.
package platform

import (
	"fmt"
	"time"

	"rmtest/internal/codegen"
	"rmtest/internal/env"
	"rmtest/internal/fourvar"
	"rmtest/internal/hw"
	"rmtest/internal/rtos"
	"rmtest/internal/sim"
	"rmtest/internal/statechart"
)

// Instrument selects the probe layer.
type Instrument int

// Instrumentation levels.
const (
	// RLevel probes only the environment boundary (m- and c-events):
	// everything R-testing needs.
	RLevel Instrument = iota
	// MLevel additionally probes the CODE(M) boundary (i- and o-events)
	// and transition execution, enabling delay-segment measurement.
	MLevel
)

func (i Instrument) String() string {
	if i == RLevel {
		return "R"
	}
	return "M"
}

// InputBinding routes one sensor to the chart: a rising edge on the
// sensor's latched value fires Event (if set); the latched level is
// copied into Var (if set). At least one of Event/Var must be set, and
// a sensor has at most one binding.
type InputBinding struct {
	Sensor string
	Event  string
	Var    string
}

// OutputBinding routes one chart output variable to an actuator.
type OutputBinding struct {
	Var      string
	Actuator string
}

// Config describes the implemented system independent of the scheme.
type Config struct {
	Chart   *statechart.Chart
	Cost    codegen.CostModel
	Board   hw.BoardConfig
	Inputs  []InputBinding
	Outputs []OutputBinding
}

// System is one assembled implemented system.
type System struct {
	Kernel *sim.Kernel
	Sched  *rtos.Scheduler
	Env    *env.Environment
	Board  *hw.Board
	Exec   *codegen.Exec

	Trace      *fourvar.Trace
	TransTrace *fourvar.TransitionTrace

	cfg     Config
	scheme  Scheme
	level   Instrument
	prog    *codegen.Program
	taskEnv *taskEnv
	mapping fourvar.Mapping

	stepEveryTick bool // skip no idle E_CLK tick; only tests set it

	inputsDropped  uint64
	outputsDropped uint64
	chartTicks     int64 // E_CLK ticks executed so far (elapsed-time catch-up)
}

// Scheme integrates CODE(M) with the platform by spawning RTOS tasks.
type Scheme interface {
	// Name identifies the scheme in reports ("scheme1", ...).
	Name() string
	// Start spawns the scheme's tasks on the assembled system. A
	// malformed scheme returns an error before any task is spawned.
	Start(sys *System) error
}

// taskEnv adapts the CODE(M)-executing rtos.Task to codegen.ExecEnv, so
// generated-code cost charges CPU time on whichever task runs the step
// function, one Compute per charge.
type taskEnv struct {
	tk *rtos.Task
}

func (te *taskEnv) Compute(d time.Duration) {
	if te.tk == nil {
		panic("platform: CODE(M) executed outside its task")
	}
	te.tk.Compute(d)
}

func (te *taskEnv) Now() time.Duration { return te.tk.Now() }

// listener records transition delays and o-events at the M level.
type listener struct {
	sys *System
}

func (l listener) TransitionStart(id int, label string, at time.Duration) {
	l.sys.TransTrace.Start(id, label, at)
}

func (l listener) TransitionFinish(id int, label string, at time.Duration, changed []statechart.VarChange) {
	outs := make([]string, len(changed))
	for i, ch := range changed {
		outs[i] = ch.Name
	}
	l.sys.TransTrace.Finish(id, label, at, outs)
	// o-events: the instant CODE(M) wrote each output.
	for _, ch := range changed {
		l.sys.Trace.Record(fourvar.Output, ch.Name, ch.To, at)
	}
}

// Prebuilt holds the run-independent artifacts of a Config: the
// compiled chart's generated program and the validated four-variable
// mapping. Compilation and binding validation run once in Precompile;
// every NewSystem call then only assembles run state. The Program is
// immutable (all execution state lives in codegen.Exec), so a single
// Prebuilt is safely shared by concurrent campaign workers.
type Prebuilt struct {
	cfg     Config
	prog    *codegen.Program
	mapping fourvar.Mapping
}

// Precompile compiles the chart, generates CODE(M), and validates the
// input/output bindings against the program and board configuration.
func Precompile(cfg Config) (*Prebuilt, error) {
	if cfg.Chart == nil {
		return nil, fmt.Errorf("platform: Config.Chart is required")
	}
	if len(cfg.Inputs) == 0 || len(cfg.Outputs) == 0 {
		return nil, fmt.Errorf("platform: at least one input and one output binding required")
	}
	cc, err := cfg.Chart.Compile()
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Generate(cc)
	if err != nil {
		return nil, err
	}
	// Validate bindings against board configuration and program.
	sensorSignal := make(map[string]string)
	for _, sc := range cfg.Board.Sensors {
		sensorSignal[sc.Name] = sc.Signal
	}
	actuatorSignal := make(map[string]string)
	for _, ac := range cfg.Board.Actuators {
		actuatorSignal[ac.Name] = ac.Signal
	}
	mapping := fourvar.Mapping{MtoI: map[string]string{}, OtoC: map[string]string{}}
	bound := make(map[string]bool, len(cfg.Inputs))
	for _, ib := range cfg.Inputs {
		sig, ok := sensorSignal[ib.Sensor]
		if !ok {
			return nil, fmt.Errorf("platform: input binding references unknown sensor %q", ib.Sensor)
		}
		if bound[ib.Sensor] {
			return nil, fmt.Errorf("platform: sensor %q has two input bindings; put Event and Var on one binding", ib.Sensor)
		}
		bound[ib.Sensor] = true
		if ib.Event == "" && ib.Var == "" {
			return nil, fmt.Errorf("platform: input binding for %q routes to neither event nor variable", ib.Sensor)
		}
		if ib.Event != "" {
			if _, ok := prog.EventID(ib.Event); !ok {
				return nil, fmt.Errorf("platform: input binding references unknown event %q", ib.Event)
			}
			mapping.MtoI[sig] = ib.Event
		}
		if ib.Var != "" {
			if _, ok := prog.VarID(ib.Var); !ok {
				return nil, fmt.Errorf("platform: input binding references unknown variable %q", ib.Var)
			}
			if ib.Event == "" {
				mapping.MtoI[sig] = ib.Var
			}
		}
	}
	for _, ob := range cfg.Outputs {
		sig, ok := actuatorSignal[ob.Actuator]
		if !ok {
			return nil, fmt.Errorf("platform: output binding references unknown actuator %q", ob.Actuator)
		}
		if _, ok := prog.VarID(ob.Var); !ok {
			return nil, fmt.Errorf("platform: output binding references unknown variable %q", ob.Var)
		}
		mapping.OtoC[ob.Var] = sig
	}
	if err := mapping.Validate(); err != nil {
		return nil, err
	}
	return &Prebuilt{cfg: cfg, prog: prog, mapping: mapping}, nil
}

// Config returns the configuration the Prebuilt was compiled from.
func (pb *Prebuilt) Config() Config { return pb.cfg }

// Program returns the compiled program. It is immutable; callers (the
// test-case generators' model-guided probe planning) must not mutate it.
func (pb *Prebuilt) Program() *codegen.Program { return pb.prog }

// Mapping returns the validated four-variable mapping.
func (pb *Prebuilt) Mapping() fourvar.Mapping { return pb.mapping }

// Scratch pools the run-local machinery one campaign worker can safely
// reuse between sequential runs: the simulation kernel (event pool and
// queue capacity survive Reset) and the four-variable trace (event
// capacity survives Reset). The zero value is ready to use;
// pass the same Scratch to successive NewSystem calls on one worker.
//
// The caller must be done with the previous System before building the
// next one from the same Scratch, and must not touch the previous System
// afterwards — its kernel and trace are recycled in place. A finished
// System holds no goroutine and needs no teardown.
//
// The TransitionTrace is deliberately NOT pooled: M-level results retain
// it (coverage analysis reads it after the campaign), so recycling it
// would clobber data the caller still owns.
type Scratch struct {
	kernel *sim.Kernel
	trace  *fourvar.Trace
}

// take returns the pooled kernel and trace, reset for a fresh run, and
// lazily allocates them on first use. Taps are cleared: run-scoped
// observers (the live verdict machines) must not survive into the next
// run.
func (sc *Scratch) take() (*sim.Kernel, *fourvar.Trace) {
	if sc.kernel == nil {
		sc.kernel = sim.New()
		sc.trace = fourvar.NewTrace()
	} else {
		sc.kernel.Reset()
		sc.trace.Reset()
		sc.trace.ClearTaps()
	}
	return sc.kernel, sc.trace
}

// NewSystem assembles a fresh implemented system for one simulation run.
// It recompiles the chart every call; campaigns should Precompile once
// and use Prebuilt.NewSystem per run instead.
func NewSystem(cfg Config, scheme Scheme, level Instrument) (*System, error) {
	if scheme == nil {
		return nil, fmt.Errorf("platform: scheme is required")
	}
	pb, err := Precompile(cfg)
	if err != nil {
		return nil, err
	}
	return pb.NewSystem(scheme, level, nil)
}

// NewSystem assembles one implemented system from the precompiled
// program. scratch may be nil (everything is freshly allocated) or a
// per-worker Scratch whose kernel and trace are recycled into the new
// system. The scheduler, environment, board and executor are always
// rebuilt — they are cheap, and keep no state across runs.
func (pb *Prebuilt) NewSystem(scheme Scheme, level Instrument, scratch *Scratch) (*System, error) {
	if scheme == nil {
		return nil, fmt.Errorf("platform: scheme is required")
	}
	var k *sim.Kernel
	var tr *fourvar.Trace
	if scratch != nil {
		k, tr = scratch.take()
	} else {
		k, tr = sim.New(), fourvar.NewTrace()
	}
	cfg := pb.cfg
	sys := &System{
		Kernel:     k,
		Sched:      rtos.New(k),
		Env:        env.New(k),
		Trace:      tr,
		TransTrace: fourvar.NewTransitionTrace(),
		cfg:        cfg,
		scheme:     scheme,
		level:      level,
		prog:       pb.prog,
		taskEnv:    &taskEnv{},
		mapping:    pb.mapping,
	}
	var err error
	sys.Board, err = hw.NewBoard(sys.Env, cfg.Board)
	if err != nil {
		return nil, err
	}

	var lst codegen.Listener
	if level == MLevel {
		lst = listener{sys: sys}
	}
	sys.Exec = codegen.NewExec(pb.prog, cfg.Cost, sys.taskEnv, lst)

	// Boundary probes: every monitored and controlled signal change is an
	// m-/c-event.
	for m := range pb.mapping.MtoI {
		sys.Env.Watch(m, func(name string, _, now int64, at sim.Time) {
			sys.Trace.Record(fourvar.Monitored, name, now, at)
		})
	}
	for _, c := range pb.mapping.OtoC {
		sys.Env.Watch(c, func(name string, _, now int64, at sim.Time) {
			sys.Trace.Record(fourvar.Controlled, name, now, at)
		})
	}
	if err := scheme.Start(sys); err != nil {
		return nil, err
	}
	return sys, nil
}

// Mapping returns the four-variable mapping derived from the bindings.
func (sys *System) Mapping() fourvar.Mapping { return sys.mapping }

// SchemeName returns the active scheme's name.
func (sys *System) SchemeName() string { return sys.scheme.Name() }

// Level returns the instrumentation level.
func (sys *System) Level() Instrument { return sys.level }

// Program returns the generated program.
func (sys *System) Program() *codegen.Program { return sys.prog }

// InputsDropped counts chart input messages lost to full queues.
func (sys *System) InputsDropped() uint64 { return sys.inputsDropped }

// OutputsDropped counts output messages lost to full queues.
func (sys *System) OutputsDropped() uint64 { return sys.outputsDropped }

// Run advances the simulation to the given horizon.
func (sys *System) Run(until sim.Time) { sys.Kernel.Run(until) }

// recordInput records an i-event: the instant CODE(M) read the input.
func (sys *System) recordInput(name string, v int64, at sim.Time) {
	if sys.level == MLevel {
		sys.Trace.Record(fourvar.Input, name, v, at)
	}
}

// boundInput is one input binding resolved for scanning: its sensor,
// the sensor's read cost, the event's bit in the step mask (0 when the
// binding routes no event) and the value the previous scan read.
type boundInput struct {
	InputBinding
	sensor   *hw.Sensor
	readCost sim.Time
	event    uint64
	last     int64
}

// bindInputs resolves the input bindings for one scanning task. It primes
// each binding's edge state from its sensor's power-on latch value, as
// device-driver init code does; otherwise a stimulus arriving before the
// task's first scan would be taken as the baseline and silently
// swallowed. Precompile allows one binding per sensor, so edge state per
// binding is edge state per sensor.
func (sys *System) bindInputs() []boundInput {
	ins := make([]boundInput, len(sys.cfg.Inputs))
	for i, ib := range sys.cfg.Inputs {
		s := sys.Board.Sensor(ib.Sensor)
		ins[i] = boundInput{InputBinding: ib, sensor: s, readCost: s.Config().ReadCost, last: s.Read()}
		if id, ok := sys.prog.EventID(ib.Event); ok {
			ins[i].event = 1 << uint(id)
		}
	}
	return ins
}

// inputScan reads every bound sensor and reports chart updates: the event
// mask to fire and variable updates to apply. ins carries edge state
// across invocations; CPU read costs are charged to tk.
func (sys *System) inputScan(tk *rtos.Task, ins []boundInput) (mask uint64, updates []varUpdate) {
	for i := range ins {
		in := &ins[i]
		if in.readCost > 0 {
			tk.Compute(in.readCost)
		}
		v, last := in.sensor.Read(), in.last
		if v == last {
			continue
		}
		in.last = v
		if in.event != 0 && last == 0 && v != 0 {
			mask |= in.event
			updates = append(updates, varUpdate{name: in.Event, value: 1, event: in.event})
		}
		if in.Var != "" {
			updates = append(updates, varUpdate{name: in.Var, value: v})
		}
	}
	return mask, updates
}

// varUpdate is one input change for CODE(M): an event, whose bit in the
// step mask is event, or a new value for an input variable (event 0).
type varUpdate struct {
	name  string
	value int64
	event uint64
}

// applyInputs commits updates into the executor and records i-events at
// the commit instant (the moment CODE(M) reads them).
func (sys *System) applyInputs(tk *rtos.Task, updates []varUpdate) {
	for _, u := range updates {
		if u.event == 0 {
			sys.Exec.SetInput(u.name, u.value)
		}
		sys.recordInput(u.name, u.value, tk.Now())
	}
}

// stepChart advances the chart to the current platform time: it executes
// as many E_CLK ticks as have elapsed since the previous invocation
// (elapsed-time catch-up, as time-based generated code does), so model
// time tracks real time even when task releases are skipped under
// overload. Events fire on the first tick only (they were latched once);
// output changes across the batch are merged so the invocation commits
// each output's final value, the way generated C writes its output
// structure at the end of the step computation.
//
// A catch-up tick after an event-free step that changed nothing would
// repeat that step exactly, so Exec.SkipIdle advances over such ticks up
// to the next one at which a temporal trigger on the active chain changes
// truth value, and charges their cost, exactly the idle step's charge per
// tick, as one burst. The skipped steps read no clock, so while the
// task's bursts may be summed (rtos.Task.Coalescible) the execution is
// the one that steps every tick.
func (sys *System) stepChart(tk *rtos.Task, mask uint64) []statechart.VarChange {
	ticks := int64(1)
	if tp := sys.prog.TickPeriod; tp > 0 {
		target := int64(tk.Now() / tp)
		if n := target - sys.chartTicks; n > 1 {
			ticks = n
		}
	}
	sys.chartTicks += ticks
	first := make(map[string]int64)
	last := make(map[string]int64)
	var order []string
	absorb := func(changes []statechart.VarChange) {
		for _, ch := range changes {
			if _, seen := first[ch.Name]; !seen {
				first[ch.Name] = ch.From
				order = append(order, ch.Name)
			}
			last[ch.Name] = ch.To
		}
	}
	absorb(sys.Exec.Step(mask).Changed)
	for k := int64(1); k < ticks; k++ {
		if !sys.stepEveryTick && tk.Coalescible() {
			if k += sys.Exec.SkipIdle(ticks - k); k == ticks {
				break
			}
		}
		absorb(sys.Exec.Step(0).Changed)
	}
	var out []statechart.VarChange
	for _, name := range order {
		if first[name] != last[name] {
			out = append(out, statechart.VarChange{Name: name, From: first[name], To: last[name]})
		}
	}
	return out
}

// writeOutput pushes one output variable's new value to every actuator
// bound to it, charging each write cost to tk.
func (sys *System) writeOutput(tk *rtos.Task, name string, value int64) {
	for _, ob := range sys.cfg.Outputs {
		if ob.Var != name {
			continue
		}
		a := sys.Board.Actuator(ob.Actuator)
		if c := a.Config().WriteCost; c > 0 {
			tk.Compute(c)
		}
		a.Write(value)
	}
}
