package faults

import (
	"math"
	"strings"
	"testing"
	"time"

	"rmtest/internal/core"
	"rmtest/internal/fourvar"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

const ms = time.Millisecond

func pump(t *testing.T) *platform.System {
	t.Helper()
	sys, err := platform.NewSystem(gpca.PlatformConfig(), platform.DefaultScheme2(), platform.MLevel)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestClassStringsAndExpectedSegments(t *testing.T) {
	cases := []struct {
		c    Class
		s    string
		want core.Segment
	}{
		{SensorStuck, "sensor-stuck", core.SegInput},
		{SensorDropout, "sensor-dropout", core.SegInput},
		{SensorLatency, "sensor-latency", core.SegInput},
		{ActuatorLatency, "actuator-latency", core.SegOutput},
		{ActuatorDead, "actuator-dead", core.SegOutput},
		{TaskOverrun, "task-overrun", core.SegCode},
		{ISRStorm, "isr-storm", core.SegNone}, // diffuse damage: the negative control
		{QueueDrop, "queue-drop", core.SegInput},
		{ClockDrift, "clock-drift", core.SegInput},
		{ClassNone, "none", core.SegNone},
	}
	for _, c := range cases {
		if c.c.String() != c.s {
			t.Errorf("%d.String() = %q, want %q", int(c.c), c.c.String(), c.s)
		}
		if got := c.c.ExpectedSegment(); got != c.want {
			t.Errorf("%s.ExpectedSegment() = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestApplyRejectsInvalidFaults(t *testing.T) {
	sys := pump(t)
	hour := sim.Time(time.Hour)
	cases := []struct {
		name string
		f    Fault
		want string
	}{
		{"zero duration", Fault{Class: SensorStuck, Target: "bolus_button"}, "non-positive duration"},
		{"negative start", Fault{Class: SensorStuck, Target: "bolus_button", Start: -1, Duration: hour}, "negative start"},
		{"missing target", Fault{Class: SensorStuck, Duration: hour}, "missing target"},
		{"latency without bound", Fault{Class: SensorLatency, Target: "bolus_button", Duration: hour}, "non-positive Max"},
		{"overrun zero scale", Fault{Class: TaskOverrun, Target: "codeM", Duration: hour}, "non-positive scale"},
		{"storm without period", Fault{Class: ISRStorm, Duration: hour, Cost: ms}, "non-positive Period"},
		{"storm without cost", Fault{Class: ISRStorm, Duration: hour, Period: ms}, "non-positive Cost"},
		{"drop without cadence", Fault{Class: QueueDrop, Target: "inQ", Duration: hour}, "Every must be >= 1"},
		{"drift without ppm", Fault{Class: ClockDrift, Target: "bolus_button", Duration: hour}, "zero PPM"},
		{"drift window end overflows", Fault{Class: ClockDrift, Target: "bolus_button", Start: 1, Duration: math.MaxInt64, PPM: 1000}, "window end overflows"},
		{"storm window end overflows", Fault{Class: ISRStorm, Start: ms, Duration: math.MaxInt64, Period: ms, Cost: ms / 2}, "window end overflows"},
		{"drift stops the clock", Fault{Class: ClockDrift, Target: "bolus_button", Duration: hour, PPM: -1_000_000}, "non-positive period"},
		{"unknown class", Fault{Class: Class(99), Target: "x", Duration: hour}, "unknown class"},
		{"unknown sensor", Fault{Class: SensorStuck, Target: "nope", Duration: hour}, `unknown sensor "nope"`},
		{"unknown actuator", Fault{Class: ActuatorDead, Target: "nope", Duration: hour}, `unknown actuator "nope"`},
		{"unknown task", Fault{Class: TaskOverrun, Target: "nope", Duration: hour, Num: 2, Den: 1}, `unknown task "nope"`},
		{"unknown queue", Fault{Class: QueueDrop, Target: "nope", Duration: hour, Every: 1}, `unknown queue "nope"`},
	}
	for _, c := range cases {
		err := Plan{Name: "bad", Faults: []Fault{c.f}}.Apply(sys, 1)
		if err == nil {
			t.Errorf("%s: Apply accepted %v", c.name, c.f)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestApplyIsAtomic pins the validate-all-before-arming contract: a plan
// whose second fault is invalid must inject nothing, including its valid
// first fault.
func TestApplyIsAtomic(t *testing.T) {
	sys := pump(t)
	plan := Plan{Name: "half-bad", Faults: []Fault{
		{Class: SensorStuck, Target: "bolus_button", Start: 0, Duration: sim.Time(time.Hour), Value: 7},
		{Class: SensorStuck, Target: "no-such-sensor", Duration: sim.Time(time.Hour)},
	}}
	if err := plan.Apply(sys, 1); err == nil {
		t.Fatal("Apply accepted a plan with an unknown target")
	}
	sys.Kernel.Run(sim.Time(30 * ms))
	if got := sys.Board.Sensor("bolus_button").Read(); got != 7 {
		return // stuck fault was not armed, as required
	}
	t.Fatal("a failed Apply armed the plan's valid fault anyway")
}

func TestClockDriftRequiresPeriodicSampling(t *testing.T) {
	sys := pump(t)
	// Every sensor samples on a periodic clock, so drift validates on any
	// sensor the board has, and only on those.
	ok := Plan{Faults: []Fault{{Class: ClockDrift, Target: "bolus_button", Duration: sim.Time(time.Hour), PPM: 1000}}}
	if err := ok.Apply(sys, 1); err != nil {
		t.Fatalf("drift on a polled sensor must validate: %v", err)
	}
	bad := Plan{Faults: []Fault{{Class: ClockDrift, Target: "no-such-sensor", Duration: sim.Time(time.Hour), PPM: 1000}}}
	if err := bad.Apply(sys, 1); err == nil || !strings.Contains(err.Error(), "unknown sensor") {
		t.Fatalf("drift on an unknown sensor must fail as unknown, got %v", err)
	}
}

func TestPreparePanicsOnBadPlan(t *testing.T) {
	sys := pump(t)
	bad := Plan{Name: "bad", Faults: []Fault{{Class: SensorStuck, Target: "nope", Duration: sim.Time(time.Hour)}}}
	defer func() {
		if recover() == nil {
			t.Fatal("Prepare must panic when Apply errors")
		}
	}()
	Prepare(bad, 1)(sys, core.TestCase{})
}

func TestFaultString(t *testing.T) {
	f := Fault{Class: SensorLatency, Target: "s", Start: sim.Time(10 * ms), Duration: sim.Time(20 * ms), Max: sim.Time(ms)}
	if got := f.String(); got != "sensor-latency(s)[10ms+20ms]" {
		t.Fatalf("String() = %q", got)
	}
	f.Target = ""
	if got := f.String(); got != "sensor-latency[10ms+20ms]" {
		t.Fatalf("String() = %q", got)
	}
}

// chain builds a chain-complete M-sample with the given verdict and
// segment delays.
func chain(v core.Verdict, in, code, out sim.Time) core.MSample {
	m := sim.Time(0)
	i := m + in
	o := i + code
	c := o + out
	return core.MSample{
		SampleResult: core.SampleResult{MObserved: true, CObserved: true, Verdict: v},
		Segments: fourvar.Segments{
			M: fourvar.Event{At: m}, I: fourvar.Event{At: i},
			O: fourvar.Event{At: o}, C: fourvar.Event{At: c},
		},
		SegmentsOK: true,
		IObserved:  true, OObserved: true,
	}
}

func TestAttributeVotesAndDamage(t *testing.T) {
	base := core.MResult{Samples: []core.MSample{
		chain(core.Pass, sim.Time(10*ms), sim.Time(5*ms), sim.Time(2*ms)),
		chain(core.Pass, sim.Time(10*ms), sim.Time(5*ms), sim.Time(2*ms)),
	}}
	plan := Plan{Name: "p", Faults: []Fault{{Class: TaskOverrun, Target: "codeM", Duration: 1, Num: 3, Den: 1}}}

	// Two Fails whose code delay grew the most, one whose output grew the
	// most: majority blames CODE(M), matching TaskOverrun's expectation.
	faulted := core.MResult{Samples: []core.MSample{
		chain(core.Fail, sim.Time(10*ms), sim.Time(25*ms), sim.Time(2*ms)),
		chain(core.Fail, sim.Time(11*ms), sim.Time(30*ms), sim.Time(2*ms)),
		chain(core.Fail, sim.Time(10*ms), sim.Time(5*ms), sim.Time(40*ms)),
		chain(core.Pass, sim.Time(10*ms), sim.Time(5*ms), sim.Time(2*ms)),
	}}
	a := Attribute(plan, base, faulted)
	if a.Class != TaskOverrun || a.Expected != core.SegCode {
		t.Fatalf("plan echo wrong: %+v", a)
	}
	if a.Pass != 1 || a.Fail != 3 || a.Max != 0 {
		t.Fatalf("tally = %d/%d/%d, want 1/3/0", a.Pass, a.Fail, a.Max)
	}
	if a.Attributed != core.SegCode || !a.Match {
		t.Fatalf("attributed %v match=%v, want codeM-delay/true", a.Attributed, a.Match)
	}
	// Mean damage across the 4 chain-complete samples.
	if a.DInput != sim.Time(ms/4) || a.DCode != sim.Time(45*ms/4) || a.DOutput != sim.Time(38*ms/4) {
		t.Fatalf("damage profile = %v/%v/%v", a.DInput, a.DCode, a.DOutput)
	}
}

func TestAttributeMaxTrisection(t *testing.T) {
	base := core.MResult{Samples: []core.MSample{
		chain(core.Pass, sim.Time(10*ms), sim.Time(5*ms), sim.Time(2*ms)),
	}}
	max := func(mObs, iObs, oObs bool) core.MSample {
		return core.MSample{
			SampleResult: core.SampleResult{MObserved: mObs, Verdict: core.Max},
			IObserved:    iObs, OObserved: oObs,
		}
	}
	cases := []struct {
		name   string
		s      core.MSample
		class  Class
		target string
		want   core.Segment
	}{
		{"no i-event", max(true, false, false), SensorStuck, "bolus_button", core.SegInput},
		{"i but no o", max(true, true, false), TaskOverrun, "codeM", core.SegCode},
		{"o but no c", max(true, true, true), ActuatorDead, "pump_motor", core.SegOutput},
	}
	for _, c := range cases {
		plan := Plan{Name: c.name, Faults: []Fault{{Class: c.class, Target: c.target, Duration: 1, Num: 2, Den: 1}}}
		a := Attribute(plan, base, core.MResult{Samples: []core.MSample{c.s}})
		if a.Max != 1 || a.Attributed != c.want {
			t.Errorf("%s: max=%d attributed=%v, want 1/%v", c.name, a.Max, a.Attributed, c.want)
		}
	}

	// A MAX whose stimulus never registered abstains entirely.
	a := Attribute(Plan{Name: "ghost"}, base, core.MResult{Samples: []core.MSample{max(false, false, false)}})
	if a.Attributed != core.SegNone {
		t.Fatalf("unregistered stimulus voted: %v", a.Attributed)
	}

	// Vote ties break in pipeline order: one input vote, one code vote.
	tie := core.MResult{Samples: []core.MSample{max(true, false, false), max(true, true, false)}}
	a = Attribute(Plan{Name: "tie"}, base, tie)
	if a.Attributed != core.SegInput {
		t.Fatalf("tie broke to %v, want input-delay (pipeline order)", a.Attributed)
	}
}

func TestAttributeEmptyBaselinePlan(t *testing.T) {
	base := core.MResult{Samples: []core.MSample{
		chain(core.Pass, sim.Time(10*ms), sim.Time(5*ms), sim.Time(2*ms)),
	}}
	a := Attribute(Plan{Name: "baseline"}, base, base)
	if a.Class != ClassNone || a.Expected != core.SegNone || a.Attributed != core.SegNone || !a.Match {
		t.Fatalf("baseline attribution wrong: %+v", a)
	}
	if a.Pass != 1 || a.Fail != 0 || a.Max != 0 {
		t.Fatalf("baseline tally wrong: %+v", a)
	}
}
