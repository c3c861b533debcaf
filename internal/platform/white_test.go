package platform

import (
	"testing"
	"time"

	"rmtest/internal/codegen"
	"rmtest/internal/fourvar"
	"rmtest/internal/hw"
	"rmtest/internal/statechart"
)

// flipFlopConfig builds a chart that toggles its output every E_CLK tick,
// so one 25 ms scheme-1 invocation batches ~25 opposing writes.
func flipFlopConfig() Config {
	chart := &statechart.Chart{
		Name:       "flipflop",
		TickPeriod: time.Millisecond,
		Vars: []statechart.VarDecl{
			{Name: "out", Type: statechart.Bool, Kind: statechart.Output},
			{Name: "dummy_in", Type: statechart.Bool, Kind: statechart.Input},
		},
		Initial: "A",
		States: []*statechart.State{
			{Name: "A", Transitions: []statechart.Transition{
				{To: "B", Trigger: "after(1, E_CLK)", Action: "out := 1"},
			}},
			{Name: "B", Transitions: []statechart.Transition{
				{To: "A", Trigger: "after(1, E_CLK)", Action: "out := 0"},
			}},
		},
	}
	return Config{
		Chart: chart,
		Cost:  codegen.ZeroCostModel(),
		Board: hw.BoardConfig{
			Sensors:   []hw.SensorConfig{{Name: "s", Signal: "sig_in", SamplePeriod: 5 * ms}},
			Actuators: []hw.ActuatorConfig{{Name: "a", Signal: "sig_out"}},
		},
		Inputs:  []InputBinding{{Sensor: "s", Var: "dummy_in"}},
		Outputs: []OutputBinding{{Var: "out", Actuator: "a"}},
	}
}

func TestStepChartMergesOpposingWrites(t *testing.T) {
	sys, err := NewSystem(flipFlopConfig(), DefaultScheme1(), MLevel)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(500 * time.Millisecond)
	// The chart toggled hundreds of times (visible as transitions)...
	if n := sys.Exec.TransitionsTaken(); n < 400 {
		t.Fatalf("transitions=%d, expected hundreds", n)
	}
	// ...but the committed output only changes by the batch's net effect:
	// at most one actuator command per invocation (~20 in 500ms), not one
	// per tick (~500).
	cmds := sys.Board.Actuator("a").Commands()
	if cmds > 25 {
		t.Fatalf("actuator commands=%d; batching should commit net values", cmds)
	}
}

func TestOutputsDroppedWhenActuationStarves(t *testing.T) {
	s := DefaultScheme2()
	s.ActPeriod = 10 * time.Second // actuation never drains in this run
	s.QueueCap = 1
	cfg := pumpConfig()
	sys, err := NewSystem(cfg, s, RLevel)
	if err != nil {
		t.Fatal(err)
	}
	// Bolus start fills the single outQ slot; the motor-stop message 4 s
	// later finds it still occupied and is dropped.
	sys.Env.PulseAt(40*ms, "sig_bolus_button", 1, 0, 60*ms)
	sys.Run(6 * time.Second)
	if sys.OutputsDropped() == 0 {
		t.Fatal("expected dropped output messages with a starved actuation task")
	}
}

func TestScheme1CustomPeriodAndPriority(t *testing.T) {
	sys, err := NewSystem(pumpConfig(), &Scheme1{Period: 10 * ms, Prio: 5}, RLevel)
	if err != nil {
		t.Fatal(err)
	}
	sys.Env.PulseAt(33*ms, "sig_bolus_button", 1, 0, 60*ms)
	sys.Run(300 * ms)
	// A 10 ms polling period bounds the response tighter than the default.
	m, _ := sys.Trace.FirstAt(fourvar.Monitored, "sig_bolus_button", 0, func(v int64) bool { return v == 1 })
	c, ok := sys.Trace.FirstAt(fourvar.Controlled, "sig_pump_motor", 0, func(v int64) bool { return v >= 1 })
	if !ok || c.At-m.At > 25*ms {
		t.Fatalf("ok=%v delay=%v", ok, c.At-m.At)
	}
	tk := sys.Sched.Tasks()[0]
	if tk.Priority() != 5 || tk.Period() != 10*ms {
		t.Fatalf("task meta: prio=%d period=%v", tk.Priority(), tk.Period())
	}
}
