package gpca

import (
	"testing"
	"time"

	"rmtest/internal/core"
	"rmtest/internal/fourvar"
	"rmtest/internal/interp"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
	"rmtest/internal/verify"
)

const ms = time.Millisecond

func TestChartCompiles(t *testing.T) {
	cc, err := Chart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cc.InitialLeaf() != "Idle" {
		t.Fatalf("initial %q", cc.InitialLeaf())
	}
	if cc.TransitionCount() != 6 {
		t.Fatalf("transitions %d", cc.TransitionCount())
	}
}

func TestExtendedChartCompilesAndRuns(t *testing.T) {
	cc, err := ExtendedChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	if m.ActiveState() != "Off" {
		t.Fatalf("initial %q", m.ActiveState())
	}
	m.Step("i_PowerOn")
	if m.ActiveState() != "SelfTest" || m.Get("o_AlarmLED") != 1 {
		t.Fatalf("state %q led %d", m.ActiveState(), m.Get("o_AlarmLED"))
	}
	for i := 0; i < 500; i++ {
		m.Step()
	}
	if m.ActiveState() != "Ready" || m.Get("o_AlarmLED") != 0 {
		t.Fatalf("state %q after self test", m.ActiveState())
	}
	m.SetInput("basal_rate", 3)
	m.Step("i_Start")
	if m.ActiveState() != "Basal" || m.Get("o_MotorState") != 3 {
		t.Fatalf("state %q motor %d", m.ActiveState(), m.Get("o_MotorState"))
	}
	m.Step("i_BolusReq")
	if m.ActiveState() != "Bolus" || m.Get("o_MotorState") != 13 {
		t.Fatalf("state %q motor %d", m.ActiveState(), m.Get("o_MotorState"))
	}
	for i := 0; i < 4000; i++ {
		m.Step()
	}
	if m.ActiveState() != "Basal" || m.Get("o_MotorState") != 3 {
		t.Fatalf("bolus should end: %q motor %d", m.ActiveState(), m.Get("o_MotorState"))
	}
	m.Step("i_OcclusionAlarm")
	if m.ActiveState() != "Alarm" || m.Get("o_MotorState") != 0 || m.Get("o_AlarmLED") != 2 {
		t.Fatalf("alarm state %q motor %d led %d", m.ActiveState(), m.Get("o_MotorState"), m.Get("o_AlarmLED"))
	}
	m.Step("i_ClearAlarm")
	if m.ActiveState() != "Ready" || m.Get("o_BuzzerState") != 0 {
		t.Fatalf("clear failed: %q", m.ActiveState())
	}
}

func TestExtendedStartRequiresRate(t *testing.T) {
	cc, err := ExtendedChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(cc)
	m.Step("i_PowerOn")
	for i := 0; i < 500; i++ {
		m.Step()
	}
	m.Step("i_Start") // basal_rate == 0: guard blocks
	if m.ActiveState() != "Ready" {
		t.Fatalf("start without rate should be ignored, state %q", m.ActiveState())
	}
}

func TestREQ1ModelLevelVerification(t *testing.T) {
	cc, err := Chart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.CheckResponse(cc, verify.ResponseProperty{
		Name: "REQ1", Event: "i_BolusReq", InState: "Idle",
		Output: "o_MotorState", Target: func(v int64) bool { return v >= 1 },
		WithinTicks: 100,
	}, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != verify.Holds {
		t.Fatalf("REQ1 must hold at model level: %v", res)
	}
}

func TestRequirementsCatalogueValid(t *testing.T) {
	reqs := Requirements()
	if len(reqs) != 3 {
		t.Fatalf("catalogue size %d", len(reqs))
	}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
	}
}

func TestFactoryBuildsFreshSystems(t *testing.T) {
	f := Factory(func() platform.Scheme { return platform.DefaultScheme1() })
	s1, err := f(platform.RLevel)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f(platform.MLevel)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 || s1.Kernel == s2.Kernel {
		t.Fatal("factory must build independent systems")
	}
	if s1.Level() != platform.RLevel || s2.Level() != platform.MLevel {
		t.Fatal("levels wrong")
	}
}

func TestReservoirPhysicsTriggersEmptyAlarm(t *testing.T) {
	// End-to-end physical scenario: the reservoir drains while the motor
	// runs; when it empties, the empty sensor trips and the pump alarms.
	sys, err := platform.NewSystem(PlatformConfig(), platform.DefaultScheme1(), platform.MLevel)
	if err != nil {
		t.Fatal(err)
	}
	vol := sys.Env.Define("sig_reservoir_volume", 300)
	sys.Env.NewIntegrator(SigPumpMotor, "sig_reservoir_volume", 1, 0, 10*ms)
	sys.Env.Watch("sig_reservoir_volume", func(_ string, _, now int64, _ time.Duration) {
		if now <= 0 {
			sys.Env.Set(SigReservoirEmpty, 1)
		}
	})
	// Patient requests a bolus; the 4 s infusion drains 300 units within
	// 3 s at rate 1 (1 unit/ms * 10ms period * motor=1 -> 10 units/tick).
	sys.Env.PulseAt(50*ms, SigBolusButton, 1, 0, ButtonPress)
	sys.Run(6 * time.Second)
	if vol.Value() != 0 {
		t.Fatalf("reservoir should be empty, vol=%d", vol.Value())
	}
	if sys.Env.Get(SigBuzzer) != 1 {
		t.Fatal("buzzer should sound on empty reservoir")
	}
	if sys.Env.Get(SigPumpMotor) != 0 {
		t.Fatal("motor should stop on empty reservoir")
	}
	// The alarm chain is visible in the four-variable trace.
	if _, ok := sys.Trace.FirstAt(fourvar.Monitored, SigReservoirEmpty, 0, func(v int64) bool { return v == 1 }); !ok {
		t.Fatal("missing m-event for reservoir empty")
	}
}

func TestREQ2AndREQ3EndToEnd(t *testing.T) {
	factory := Factory(func() platform.Scheme { return platform.DefaultScheme1() })
	// REQ2: alarm within 250ms.
	r2, err := core.NewRunner(factory, REQ2())
	if err != nil {
		t.Fatal(err)
	}
	tc := core.TestCase{Name: "req2", Stimuli: []time.Duration{100 * ms}}
	rep, err := r2.RunRM(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.R.Passed() {
		t.Fatalf("REQ2: %v", rep.R.Samples)
	}
	// REQ3 needs an active alarm first; drive the scenario manually.
	sys, err := factory(platform.RLevel)
	if err != nil {
		t.Fatal(err)
	}
	sys.Env.SetAt(50*ms, SigReservoirEmpty, 1)
	sys.Env.PulseAt(500*ms, SigClearButton, 1, 0, ButtonPress)
	sys.Run(2 * time.Second)
	if sys.Env.Get(SigBuzzer) != 0 {
		t.Fatal("buzzer should be cleared")
	}
	clear, _ := sys.Trace.FirstAt(fourvar.Monitored, SigClearButton, 0, func(v int64) bool { return v == 1 })
	off, ok := sys.Trace.FirstAt(fourvar.Controlled, SigBuzzer, clear.At, func(v int64) bool { return v == 0 })
	if !ok || off.At-clear.At > REQ3().Bound {
		t.Fatalf("REQ3 violated: clear@%v off@%v", clear.At, off.At)
	}
}

func TestExtendedPumpOnPlatform(t *testing.T) {
	// The hierarchical GPCA model runs end-to-end on the simulated
	// platform: power on, self test, set a basal rate, start, request a
	// bolus, trip an occlusion, clear.
	sys, err := platform.NewSystem(ExtendedPlatformConfig(), platform.DefaultScheme2(), platform.MLevel)
	if err != nil {
		t.Fatal(err)
	}
	e := sys.Env
	e.PulseAt(50*ms, SigPowerButton, 1, 0, 60*ms)
	e.SetAt(100*ms, SigBasalDial, 2)
	e.PulseAt(700*ms, SigStartButton, 1, 0, 60*ms) // self test ends ~550ms
	e.PulseAt(1200*ms, SigBolusButton, 1, 0, 60*ms)
	e.PulseAt(2000*ms, SigOcclusion, 1, 0, 300*ms)
	e.PulseAt(3000*ms, SigClearButton, 1, 0, 60*ms)
	sys.Run(4 * time.Second)

	// Self-test LED flashed on power-up.
	led, ok := sys.Trace.FirstAt(fourvar.Controlled, SigAlarmLED, 0, func(v int64) bool { return v == 1 })
	if !ok {
		t.Fatalf("self-test LED never lit; trace:\n%s", sys.Trace.String())
	}
	// Basal infusion at rate 2 after start.
	basal, ok := sys.Trace.FirstAt(fourvar.Controlled, SigPumpMotor, 700*ms, func(v int64) bool { return v == 2 })
	if !ok || basal.At > 900*ms {
		t.Fatalf("basal infusion missing (ok=%v at=%v)", ok, basal.At)
	}
	// Bolus raises the rate to 12.
	if _, ok := sys.Trace.FirstAt(fourvar.Controlled, SigPumpMotor, 1200*ms, func(v int64) bool { return v == 12 }); !ok {
		t.Fatal("bolus rate missing")
	}
	// Occlusion stops the motor and raises LED pattern 2.
	if _, ok := sys.Trace.FirstAt(fourvar.Controlled, SigPumpMotor, 2000*ms, func(v int64) bool { return v == 0 }); !ok {
		t.Fatal("occlusion should stop the motor")
	}
	if _, ok := sys.Trace.FirstAt(fourvar.Controlled, SigAlarmLED, 2000*ms, func(v int64) bool { return v == 2 }); !ok {
		t.Fatal("occlusion LED pattern missing")
	}
	// Clear silences and returns to Ready.
	if _, ok := sys.Trace.FirstAt(fourvar.Controlled, SigBuzzer, 3000*ms, func(v int64) bool { return v == 0 }); !ok {
		t.Fatal("alarm clear missing")
	}
	if led.At == 0 {
		t.Fatal("unreachable")
	}
}

// TestVerifiedPropertyHoldsUnderRandomSimulation cross-checks the model
// checker empirically: REQ1 was proven at model level, so no random
// stimulus sequence may ever exhibit a bolus request in Idle that is not
// answered within 100 ticks.
func TestVerifiedPropertyHoldsUnderRandomSimulation(t *testing.T) {
	cc, err := Chart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	events := []string{"i_BolusReq", "i_EmptyAlarm", "i_ClearAlarm"}
	for seed := uint64(1); seed <= 40; seed++ {
		r := sim.NewRand(seed)
		m := interp.NewMachine(cc)
		pending := int64(-1) // ticks since an unanswered trigger
		for tick := 0; tick < 2000; tick++ {
			var evs []string
			for _, e := range events {
				if r.Bool(0.1) {
					evs = append(evs, e)
				}
			}
			triggered := m.ActiveState() == "Idle" && contains(evs, "i_BolusReq")
			res := m.Step(evs...)
			if res.Err != nil {
				t.Fatalf("seed %d: %v", seed, res.Err)
			}
			if triggered && pending < 0 {
				pending = 0
			}
			if pending >= 0 {
				answered := false
				for _, w := range res.Writes {
					if w.Name == "o_MotorState" && w.To >= 1 {
						answered = true
					}
				}
				if answered {
					pending = -1
				} else if pending >= 100 {
					t.Fatalf("seed %d tick %d: REQ1 violated in simulation despite model proof", seed, tick)
				} else {
					pending++
				}
			}
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
