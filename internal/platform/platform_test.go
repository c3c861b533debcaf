package platform

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rmtest/internal/codegen"
	"rmtest/internal/fourvar"
	"rmtest/internal/hw"
	"rmtest/internal/lint"
	"rmtest/internal/statechart"
)

const ms = time.Millisecond

// pumpConfig assembles the Fig. 2 chart on a minimal pump board.
func pumpConfig() Config {
	chart := &statechart.Chart{
		Name:       "pump",
		TickPeriod: time.Millisecond,
		Events:     []string{"i_BolusReq", "i_EmptyAlarm", "i_ClearAlarm"},
		Vars: []statechart.VarDecl{
			{Name: "o_MotorState", Type: statechart.Int, Kind: statechart.Output},
			{Name: "o_BuzzerState", Type: statechart.Bool, Kind: statechart.Output},
		},
		Initial: "Idle",
		States: []*statechart.State{
			{Name: "Idle", Transitions: []statechart.Transition{
				{To: "BolusRequested", Trigger: "i_BolusReq"},
				{To: "EmptyAlarm", Trigger: "i_EmptyAlarm", Action: "o_MotorState := 0; o_BuzzerState := 1"},
			}},
			{Name: "BolusRequested", Transitions: []statechart.Transition{
				{To: "Infusion", Trigger: "before(100, E_CLK)", Action: "o_MotorState := 1"},
			}},
			{Name: "Infusion", Transitions: []statechart.Transition{
				{To: "Idle", Trigger: "at(4000, E_CLK)", Action: "o_MotorState := 0"},
				{To: "EmptyAlarm", Trigger: "i_EmptyAlarm", Action: "o_MotorState := 0; o_BuzzerState := 1"},
			}},
			{Name: "EmptyAlarm", Transitions: []statechart.Transition{
				{To: "Idle", Trigger: "i_ClearAlarm", Action: "o_BuzzerState := 0"},
			}},
		},
	}
	return Config{
		Chart: chart,
		Cost:  codegen.DefaultCostModel(),
		Board: hw.BoardConfig{
			Name: "pump-board",
			Sensors: []hw.SensorConfig{
				{Name: "bolus_button", Signal: "sig_bolus_button", SamplePeriod: 5 * ms, ReadCost: 20 * time.Microsecond},
				{Name: "reservoir_empty", Signal: "sig_reservoir_empty", SamplePeriod: 5 * ms, ReadCost: 20 * time.Microsecond},
				{Name: "clear_button", Signal: "sig_clear_button", SamplePeriod: 5 * ms, ReadCost: 20 * time.Microsecond},
			},
			Actuators: []hw.ActuatorConfig{
				{Name: "pump_motor", Signal: "sig_pump_motor", Latency: 3 * ms, WriteCost: 30 * time.Microsecond},
				{Name: "buzzer", Signal: "sig_buzzer", Latency: ms, WriteCost: 30 * time.Microsecond},
			},
		},
		Inputs: []InputBinding{
			{Sensor: "bolus_button", Event: "i_BolusReq"},
			{Sensor: "reservoir_empty", Event: "i_EmptyAlarm"},
			{Sensor: "clear_button", Event: "i_ClearAlarm"},
		},
		Outputs: []OutputBinding{
			{Var: "o_MotorState", Actuator: "pump_motor"},
			{Var: "o_BuzzerState", Actuator: "buzzer"},
		},
	}
}

func newSys(t *testing.T, scheme Scheme, level Instrument) *System {
	t.Helper()
	sys, err := NewSystem(pumpConfig(), scheme, level)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// pressBolus presses the bolus button at `at` for `width`.
func pressBolus(sys *System, at, width time.Duration) {
	sys.Env.PulseAt(at, "sig_bolus_button", 1, 0, width)
}

func motorOnEvent(t *testing.T, sys *System) fourvar.Event {
	t.Helper()
	e, ok := sys.Trace.FirstAt(fourvar.Controlled, "sig_pump_motor", 0, func(v int64) bool { return v == 1 })
	if !ok {
		t.Fatalf("motor never started; trace:\n%s", sys.Trace.String())
	}
	return e
}

func TestScheme1BolusWithinDeadline(t *testing.T) {
	sys := newSys(t, DefaultScheme1(), RLevel)
	pressBolus(sys, 40*ms, 60*ms)
	sys.Run(500 * ms)
	m, _ := sys.Trace.FirstAt(fourvar.Monitored, "sig_bolus_button", 0, func(v int64) bool { return v == 1 })
	c := motorOnEvent(t, sys)
	delay := c.At - m.At
	if delay <= 0 || delay > 100*ms {
		t.Fatalf("bolus start delay %v, want (0, 100ms]", delay)
	}
	// Scheme 1 worst case: sensor sample (5) + task phase (25) + exec + actuator (3).
	if delay > 40*ms {
		t.Fatalf("delay %v implausibly large for scheme 1", delay)
	}
}

func TestScheme1RLevelRecordsNoIOEvents(t *testing.T) {
	sys := newSys(t, DefaultScheme1(), RLevel)
	pressBolus(sys, 40*ms, 60*ms)
	sys.Run(300 * ms)
	for _, e := range sys.Trace.Events() {
		if e.Kind == fourvar.Input || e.Kind == fourvar.Output {
			t.Fatalf("R-level trace contains %v", e)
		}
	}
	if len(sys.TransTrace.Records()) != 0 {
		t.Fatal("R-level should not record transitions")
	}
}

func TestScheme1MLevelSegments(t *testing.T) {
	sys := newSys(t, DefaultScheme1(), MLevel)
	pressBolus(sys, 40*ms, 60*ms)
	sys.Run(500 * ms)
	spec := fourvar.MatchSpec{
		MName: "sig_bolus_button", MPred: func(v int64) bool { return v == 1 },
		IName: "i_BolusReq",
		OName: "o_MotorState", OPred: func(v int64) bool { return v == 1 },
		CName: "sig_pump_motor",
	}
	seg, ok := fourvar.Match(sys.Trace, sys.TransTrace, spec, 0)
	if !ok {
		t.Fatalf("no full chain; trace:\n%s", sys.Trace.String())
	}
	if seg.InputDelay() <= 0 || seg.OutputDelay() <= 0 || seg.CodeDelay() <= 0 {
		t.Fatalf("segments must be positive: %v", seg)
	}
	if seg.Total() != seg.InputDelay()+seg.CodeDelay()+seg.OutputDelay() {
		t.Fatal("segment identity violated")
	}
	// Two transitions: Idle->BolusRequested chained into
	// BolusRequested->Infusion.
	if len(seg.Transitions) != 2 {
		t.Fatalf("transitions: %v", seg.Transitions)
	}
	if seg.TransitionTotal() > seg.CodeDelay() {
		t.Fatalf("transition total %v exceeds code delay %v", seg.TransitionTotal(), seg.CodeDelay())
	}
}

func TestRLevelAndMLevelObserveSameTotals(t *testing.T) {
	// Probing must not perturb the system: the m->c delay is identical
	// across instrumentation levels.
	total := func(level Instrument) time.Duration {
		sys := newSys(t, DefaultScheme1(), level)
		pressBolus(sys, 37*ms, 60*ms)
		sys.Run(500 * ms)
		m, _ := sys.Trace.FirstAt(fourvar.Monitored, "sig_bolus_button", 0, func(v int64) bool { return v == 1 })
		c := motorOnEvent(t, sys)
		return c.At - m.At
	}
	if r, m := total(RLevel), total(MLevel); r != m {
		t.Fatalf("R-level total %v != M-level total %v", r, m)
	}
}

func TestScheme2BolusWithinDeadline(t *testing.T) {
	sys := newSys(t, DefaultScheme2(), MLevel)
	pressBolus(sys, 33*ms, 60*ms)
	sys.Run(500 * ms)
	m, _ := sys.Trace.FirstAt(fourvar.Monitored, "sig_bolus_button", 0, func(v int64) bool { return v == 1 })
	c := motorOnEvent(t, sys)
	delay := c.At - m.At
	if delay <= 0 || delay > 100*ms {
		t.Fatalf("scheme2 delay %v, want within 100ms", delay)
	}
}

func TestScheme2UsesQueuesAcrossTasks(t *testing.T) {
	sys := newSys(t, DefaultScheme2(), MLevel)
	pressBolus(sys, 33*ms, 60*ms)
	sys.Run(500 * ms)
	// The scheduler must have spawned the three pipeline tasks.
	names := map[string]bool{}
	for _, tk := range sys.Sched.Tasks() {
		names[tk.Name()] = true
	}
	for _, want := range []string{"sense", "codeM", "actuate"} {
		if !names[want] {
			t.Fatalf("missing task %q", want)
		}
	}
	if sys.InputsDropped() != 0 {
		t.Fatalf("dropped %d inputs", sys.InputsDropped())
	}
}

// TestScheme2ZeroValueMatchesStaticModel: a zero-valued Scheme2 runs
// with the default periods and queue capacity, and they are the ones its
// static platform model declares.
func TestScheme2ZeroValueMatchesStaticModel(t *testing.T) {
	s := &Scheme2{}
	sys := newSys(t, s, RLevel)
	pressBolus(sys, 33*ms, 60*ms)
	sys.Run(time.Second)
	model, err := s.StaticModel(pumpConfig(), lint.WCETReport{})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range model.Tasks {
		tk := sys.Sched.TaskByName(spec.Name)
		if tk == nil {
			t.Fatalf("static model declares %q, the system has no such task", spec.Name)
		}
		if tk.Period() != spec.Period {
			t.Errorf("%s: simulated period %v, static model %v", spec.Name, tk.Period(), spec.Period)
		}
		if tk.Releases() == 0 {
			t.Errorf("%s never released in 1 s", spec.Name)
		}
	}
	for _, spec := range model.Queues {
		q := sys.Sched.Queue(spec.Name)
		if q == nil {
			t.Fatalf("static model declares queue %q, the system has none", spec.Name)
		}
		if q.Cap() != spec.Capacity {
			t.Errorf("queue %s: simulated capacity %d, static model %d", spec.Name, q.Cap(), spec.Capacity)
		}
	}
}

// TestStaticModelFromConfig: the static model takes its WCETs and queue
// traffic from the configuration's bound devices and the CODE(M) WCET
// report, the end-to-end bound's device latencies come from the devices
// bound to the stimulus and response signals, and a device or signal the
// bindings do not reach is an error.
func TestStaticModelFromConfig(t *testing.T) {
	cfg := pumpConfig()
	// A sensor no binding reads costs the sensing task nothing and
	// observes no stimulus.
	cfg.Board.Sensors = append(cfg.Board.Sensors, hw.SensorConfig{
		Name: "spare", Signal: "sig_spare", SamplePeriod: ms, ReadCost: ms,
	})
	code := lint.WCETReport{TickPeriod: ms, StepTriggered: 300 * time.Microsecond, StepQuiescent: 100 * time.Microsecond}
	model, err := DefaultScheme2().StaticModel(cfg, code)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		wcet  time.Duration
		items int
	}{
		{60 * time.Microsecond, 3},                          // three 20 µs reads, three events
		{300*time.Microsecond + 39*100*time.Microsecond, 2}, // one triggered and 39 catch-up steps, two outputs
		{60 * time.Microsecond, 0},                          // two 30 µs writes
	} {
		spec := model.Tasks[i]
		items := 0
		for _, u := range spec.Sends {
			items += u.Items
		}
		if spec.WCET != want.wcet || items != want.items {
			t.Errorf("%s: WCET %v, %d items sent; want %v, %d", spec.Name, spec.WCET, items, want.wcet, want.items)
		}
	}

	latch, act, err := cfg.DeviceLatencies("sig_bolus_button", "sig_pump_motor")
	if err != nil || latch != 5*ms || act != 3*ms {
		t.Errorf("DeviceLatencies = %v, %v, %v; want 5ms, 3ms", latch, act, err)
	}
	cfg.Board.Sensors[0].Debounce = 3
	if latch, _, _ := cfg.DeviceLatencies("sig_bolus_button", "sig_pump_motor"); latch != 15*ms {
		t.Errorf("debounced latch latency %v, want 15ms", latch)
	}
	for _, sig := range [][2]string{{"sig_spare", "sig_pump_motor"}, {"sig_bolus_button", "sig_nothing"}} {
		if _, _, err := cfg.DeviceLatencies(sig[0], sig[1]); err == nil {
			t.Errorf("DeviceLatencies%v: no error", sig)
		}
	}
	bad := pumpConfig()
	bad.Outputs[0].Actuator = "missing"
	if _, err := DefaultScheme3().StaticModel(bad, code); err == nil {
		t.Error("StaticModel accepted an output bound to a missing actuator")
	}
	bad = pumpConfig()
	bad.Inputs[0].Sensor = "missing"
	if _, err := DefaultScheme2().StaticModel(bad, code); err == nil {
		t.Error("StaticModel accepted an input bound to a missing sensor")
	}
}

func TestScheme2SlowerThanScheme1(t *testing.T) {
	run := func(s Scheme) time.Duration {
		sys := newSys(t, s, RLevel)
		pressBolus(sys, 41*ms, 60*ms)
		sys.Run(500 * ms)
		m, _ := sys.Trace.FirstAt(fourvar.Monitored, "sig_bolus_button", 0, func(v int64) bool { return v == 1 })
		c := motorOnEvent(t, sys)
		return c.At - m.At
	}
	d1 := run(DefaultScheme1())
	d2 := run(DefaultScheme2())
	if d2 <= d1 {
		t.Fatalf("pipeline scheme2 (%v) should be slower than scheme1 (%v)", d2, d1)
	}
}

func TestScheme3InterferenceDelaysResponse(t *testing.T) {
	// With the default interference load, at least some stimuli blow the
	// 100 ms deadline. Use a stimulus aligned right after the netdrv
	// burst starts.
	sys := newSys(t, DefaultScheme3(), RLevel)
	pressBolus(sys, 5*ms, 60*ms)
	sys.Run(2 * time.Second)
	m, _ := sys.Trace.FirstAt(fourvar.Monitored, "sig_bolus_button", 0, func(v int64) bool { return v == 1 })
	e, ok := sys.Trace.FirstAt(fourvar.Controlled, "sig_pump_motor", 0, func(v int64) bool { return v == 1 })
	if ok {
		delay := e.At - m.At
		if delay <= 100*ms {
			t.Fatalf("expected interference to delay past deadline, got %v", delay)
		}
	}
	// ok==false (MAX: press missed entirely) is also an acceptable
	// violation mode for this scheme.
}

func TestScheme3CanMissShortPress(t *testing.T) {
	// A short press during the high-priority interference burst is missed
	// entirely: the sensing task does not run while netdrv computes.
	sys := newSys(t, DefaultScheme3(), RLevel)
	pressBolus(sys, 2*ms, 30*ms) // netdrv bursts 0-90ms at prio 4
	sys.Run(2 * time.Second)
	if _, ok := sys.Trace.FirstAt(fourvar.Controlled, "sig_pump_motor", 0, func(v int64) bool { return v == 1 }); ok {
		t.Fatal("expected the press to be missed (MAX)")
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() string {
		sys, err := NewSystem(pumpConfig(), DefaultScheme3(), MLevel)
		if err != nil {
			t.Fatal(err)
		}
		pressBolus(sys, 10*ms, 60*ms)
		pressBolus(sys, 300*ms, 60*ms)
		sys.Run(time.Second)
		return sys.Trace.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic traces:\n%s\nvs\n%s", a, b)
	}
}

func TestNewSystemValidation(t *testing.T) {
	base := pumpConfig()
	s := DefaultScheme1()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil chart", func(c *Config) { c.Chart = nil }},
		{"no inputs", func(c *Config) { c.Inputs = nil }},
		{"no outputs", func(c *Config) { c.Outputs = nil }},
		{"unknown sensor", func(c *Config) { c.Inputs[0].Sensor = "ghost" }},
		{"unknown event", func(c *Config) { c.Inputs[0].Event = "i_Ghost" }},
		{"unknown actuator", func(c *Config) { c.Outputs[0].Actuator = "ghost" }},
		{"unknown output var", func(c *Config) { c.Outputs[0].Var = "o_Ghost" }},
		{"binding with neither event nor var", func(c *Config) {
			c.Inputs[0].Event = ""
			c.Inputs[0].Var = ""
		}},
	}
	for _, tc := range cases {
		cfg := base
		// Deep-copy the slices the mutation touches.
		cfg.Inputs = append([]InputBinding(nil), base.Inputs...)
		cfg.Outputs = append([]OutputBinding(nil), base.Outputs...)
		tc.mutate(&cfg)
		if _, err := NewSystem(cfg, s, RLevel); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestMalformedScheme3Rejected: NewSystem returns an error, and neither
// panics nor builds a system, for a scheme-3 interference task with a
// non-positive period or a negative burst.
func TestMalformedScheme3Rejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		task InterferenceTask
	}{
		{"zero period", InterferenceTask{Name: "bad", Prio: 1, Burst: ms}},
		{"negative period", InterferenceTask{Name: "bad", Prio: 1, Period: -10 * ms, Burst: ms}},
		{"negative burst", InterferenceTask{Name: "bad", Prio: 1, Period: 10 * ms, Burst: -ms}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := DefaultScheme3()
			s.Interference = append(s.Interference, tc.task)
			sys, err := NewSystem(pumpConfig(), s, MLevel)
			if err == nil || sys != nil || !strings.Contains(err.Error(), `"bad"`) {
				t.Fatalf("NewSystem = %v, %v; want no system and an error naming the task", sys, err)
			}
		})
	}
}

func TestMappingExposed(t *testing.T) {
	sys := newSys(t, DefaultScheme1(), RLevel)
	mp := sys.Mapping()
	if mp.MtoI["sig_bolus_button"] != "i_BolusReq" {
		t.Fatalf("mapping: %+v", mp)
	}
	if mp.OtoC["o_MotorState"] != "sig_pump_motor" {
		t.Fatalf("mapping: %+v", mp)
	}
	if sys.SchemeName() != "scheme1" || sys.Level() != RLevel {
		t.Fatal("metadata wrong")
	}
}

// levelConfig is a chart that reads a level input through a bound
// variable and raises its output once the level reaches 5.
func levelConfig() Config {
	chart := &statechart.Chart{
		Name:       "level",
		TickPeriod: time.Millisecond,
		Vars: []statechart.VarDecl{
			{Name: "in_level", Type: statechart.Int, Kind: statechart.Input},
			{Name: "o_high", Type: statechart.Bool, Kind: statechart.Output},
		},
		Initial: "Watch",
		States: []*statechart.State{
			{Name: "Watch", Transitions: []statechart.Transition{
				{To: "High", Guard: "in_level >= 5", Action: "o_high := 1"},
			}},
			{Name: "High"},
		},
	}
	return Config{
		Chart: chart,
		Cost:  codegen.DefaultCostModel(),
		Board: hw.BoardConfig{
			Sensors:   []hw.SensorConfig{{Name: "lvl", Signal: "sig_lvl", SamplePeriod: 2 * ms}},
			Actuators: []hw.ActuatorConfig{{Name: "led", Signal: "sig_led"}},
		},
		Inputs:  []InputBinding{{Sensor: "lvl", Var: "in_level"}},
		Outputs: []OutputBinding{{Var: "o_high", Actuator: "led"}},
	}
}

// costedEntryConfig is levelConfig with a costed entry action on the
// initial state, which only the initial configuration ever enters.
func costedEntryConfig() Config {
	cfg := levelConfig()
	cfg.Chart.States[0].Entry = "o_high := 0"
	return cfg
}

func TestLevelInputBindingVariableRouting(t *testing.T) {
	sys, err := NewSystem(levelConfig(), DefaultScheme1(), MLevel)
	if err != nil {
		t.Fatal(err)
	}
	sys.Env.SetAt(40*ms, "sig_lvl", 7)
	sys.Run(300 * ms)
	if sys.Env.Get("sig_led") != 1 {
		t.Fatalf("led=%d; trace:\n%s", sys.Env.Get("sig_led"), sys.Trace.String())
	}
	// The i-event for the variable routing was recorded.
	if _, ok := sys.Trace.FirstAt(fourvar.Input, "in_level", 0, func(v int64) bool { return v == 7 }); !ok {
		t.Fatalf("missing i-event for level input; trace:\n%s", sys.Trace.String())
	}
}

// TestOneBindingPerSensor: edge state is kept per sensor, so a second
// binding on a sensor would never see a change the first one consumed.
// Precompile rejects it, and one binding carrying both an event and a
// variable routes both: the event fires with the variable already set.
func TestOneBindingPerSensor(t *testing.T) {
	cfg := Config{
		Chart: &statechart.Chart{
			Name:       "evvar",
			TickPeriod: ms,
			Events:     []string{"e"},
			Vars: []statechart.VarDecl{
				{Name: "in_v", Type: statechart.Int, Kind: statechart.Input},
				{Name: "out", Type: statechart.Int, Kind: statechart.Output},
			},
			Initial: "Wait",
			States: []*statechart.State{
				{Name: "Wait", Transitions: []statechart.Transition{
					{To: "Done", Trigger: "e", Action: "out := in_v"},
				}},
				{Name: "Done"},
			},
		},
		Cost: codegen.ZeroCostModel(),
		Board: hw.BoardConfig{
			Sensors:   []hw.SensorConfig{{Name: "s", Signal: "sig", SamplePeriod: 5 * ms}},
			Actuators: []hw.ActuatorConfig{{Name: "a", Signal: "sig_out"}},
		},
		Inputs:  []InputBinding{{Sensor: "s", Event: "e"}, {Sensor: "s", Var: "in_v"}},
		Outputs: []OutputBinding{{Var: "out", Actuator: "a"}},
	}
	_, err := Precompile(cfg)
	if err == nil || !strings.Contains(err.Error(), `sensor "s"`) || !strings.Contains(err.Error(), "one binding") {
		t.Fatalf("two bindings on one sensor: err = %v, want one naming the sensor and the fix", err)
	}
	cfg.Inputs = []InputBinding{{Sensor: "s", Event: "e", Var: "in_v"}}
	for _, scheme := range []Scheme{DefaultScheme1(), DefaultScheme2()} {
		sys, err := NewSystem(cfg, scheme, MLevel)
		if err != nil {
			t.Fatal(err)
		}
		sys.Env.SetAt(30*ms, "sig", 7)
		sys.Run(300 * ms)
		if got := sys.Env.Get("sig_out"); got != 7 {
			t.Errorf("%s: output %d after the sensor read 7, want 7", scheme.Name(), got)
		}
	}
}

// traceFingerprint renders every recorded event; byte equality of two
// fingerprints means the runs observed identical executions.
func traceFingerprint(sys *System) string {
	var b strings.Builder
	for e := range sys.Trace.All() {
		fmt.Fprintf(&b, "%d %s %d %d\n", e.Kind, e.Name, e.Value, e.At)
	}
	return b.String()
}

// TestPrebuiltMatchesNewSystem: a system assembled from a Prebuilt is
// observationally identical to one assembled by NewSystem's
// compile-per-call path.
func TestPrebuiltMatchesNewSystem(t *testing.T) {
	ref := newSys(t, DefaultScheme1(), MLevel)
	pressBolus(ref, 40*ms, 60*ms)
	ref.Run(500 * ms)

	pb, err := Precompile(pumpConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pb.NewSystem(DefaultScheme1(), MLevel, nil)
	if err != nil {
		t.Fatal(err)
	}
	pressBolus(sys, 40*ms, 60*ms)
	sys.Run(500 * ms)

	if got, want := traceFingerprint(sys), traceFingerprint(ref); got != want {
		t.Fatalf("prebuilt run diverges:\n got: %s\nwant: %s", got, want)
	}
	if len(sys.TransTrace.Records()) != len(ref.TransTrace.Records()) {
		t.Fatal("transition traces diverge")
	}
}

// TestScratchReuseDeterministic: a sequence of runs through one Scratch
// reproduces the fresh-system execution exactly — the scratch-reuse
// contract the campaign engine's per-worker recycling relies on.
func TestScratchReuseDeterministic(t *testing.T) {
	pb, err := Precompile(pumpConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := traceFingerprint(func() *System {
		sys := newSys(t, DefaultScheme2(), MLevel)
		pressBolus(sys, 40*ms, 60*ms)
		sys.Run(500 * ms)
		return sys
	}())

	sc := &Scratch{}
	for i := 0; i < 3; i++ {
		sys, err := pb.NewSystem(DefaultScheme2(), MLevel, sc)
		if err != nil {
			t.Fatal(err)
		}
		pressBolus(sys, 40*ms, 60*ms)
		sys.Run(500 * ms)
		if got := traceFingerprint(sys); got != want {
			t.Fatalf("scratch run %d diverges:\n got: %s\nwant: %s", i, got, want)
		}
		// The retained TransitionTrace must be fresh per system: mutating
		// run i's records must be impossible via run i+1 (distinct values).
		if i > 0 && len(sys.TransTrace.Records()) == 0 {
			t.Fatal("reused-scratch run lost its transition trace")
		}
	}
}

// TestScratchClearsTaps: a tap registered by one run (the live verdict
// machines' wiring) must not observe the next run built from the same
// scratch.
func TestScratchClearsTaps(t *testing.T) {
	pb, err := Precompile(pumpConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	sys1, err := pb.NewSystem(DefaultScheme1(), RLevel, sc)
	if err != nil {
		t.Fatal(err)
	}
	leaked := 0
	sys1.Trace.Tap(func(fourvar.Event) { leaked++ })
	pressBolus(sys1, 40*ms, 60*ms)
	sys1.Run(300 * ms)
	seen := leaked

	sys2, err := pb.NewSystem(DefaultScheme1(), RLevel, sc)
	if err != nil {
		t.Fatal(err)
	}
	pressBolus(sys2, 40*ms, 60*ms)
	sys2.Run(300 * ms)
	if leaked != seen {
		t.Fatalf("tap from run 1 observed %d events of run 2", leaked-seen)
	}
	if sys2.Trace.Len() == 0 {
		t.Fatal("run 2 recorded nothing")
	}
}

// TestCostedInitialEntryTakesNoTime: the initial configuration is entered
// before any task runs, in zero virtual time, so a costed entry action on
// the initial state neither fails NewSystem nor moves anything the run
// observes.
func TestCostedInitialEntryTakesNoTime(t *testing.T) {
	for _, scheme := range []func() Scheme{
		func() Scheme { return DefaultScheme1() },
		func() Scheme { return DefaultScheme2() },
		func() Scheme { return DefaultScheme3() },
	} {
		run := func(cfg Config) (string, []time.Duration) {
			sys, err := NewSystem(cfg, scheme(), MLevel)
			if err != nil {
				t.Fatal(err)
			}
			sys.Env.SetAt(40*ms, "sig_lvl", 7)
			sys.Run(300 * ms)
			if sys.Env.Get("sig_led") != 1 {
				t.Fatalf("%s: led=%d; trace:\n%s", sys.SchemeName(), sys.Env.Get("sig_led"), sys.Trace.String())
			}
			var cpu []time.Duration
			for _, tk := range sys.Sched.Tasks() {
				cpu = append(cpu, tk.CPUTime())
			}
			return traceFingerprint(sys), cpu
		}
		wantTrace, wantCPU := run(levelConfig())
		gotTrace, gotCPU := run(costedEntryConfig())
		if gotTrace != wantTrace || !reflect.DeepEqual(gotCPU, wantCPU) {
			t.Fatalf("%s: the initial entry action moved the run:\ncpu %v, want %v\ntrace:\n%s\nwant:\n%s",
				scheme().Name(), gotCPU, wantCPU, gotTrace, wantTrace)
		}
	}
}
