// Package gpca is the case study of the paper: the GPCA (Generic
// Patient-Controlled Analgesia) infusion pump, built by model-based
// implementation and tested with the R-M framework.
//
// It provides the Fig. 2 pump statechart, an extended GPCA chart with
// alarm and infusion modes (exercising hierarchical states), the pump
// board with its sensors and actuators, the chart-to-platform bindings,
// and the timing-requirement catalogue including REQ1:
//
//	(REQ1) A bolus dose shall be started within 100 ms when requested
//	by the patient.
package gpca

import (
	"time"

	"rmtest/internal/codegen"
	"rmtest/internal/core"
	"rmtest/internal/hw"
	"rmtest/internal/platform"
	"rmtest/internal/statechart"
)

// Signal names at the environment boundary (m- and c-variables).
const (
	SigBolusButton    = "sig_bolus_button"
	SigReservoirEmpty = "sig_reservoir_empty"
	SigClearButton    = "sig_clear_button"
	SigPumpMotor      = "sig_pump_motor"
	SigBuzzer         = "sig_buzzer"
)

// Chart returns the pump software model of Fig. 2: Idle, BolusRequested,
// Infusion and EmptyAlarm with the 100-tick bolus-start window and the
// 4000-tick bolus duration. The E_CLK tick is 1 ms.
func Chart() *statechart.Chart {
	return &statechart.Chart{
		Name:       "gpca",
		TickPeriod: time.Millisecond,
		Events:     []string{"i_BolusReq", "i_EmptyAlarm", "i_ClearAlarm"},
		Vars: []statechart.VarDecl{
			{Name: "o_MotorState", Type: statechart.Int, Kind: statechart.Output},
			{Name: "o_BuzzerState", Type: statechart.Bool, Kind: statechart.Output},
			{Name: "bolus_count", Type: statechart.Int, Kind: statechart.Local},
		},
		Initial: "Idle",
		States: []*statechart.State{
			{Name: "Idle", Transitions: []statechart.Transition{
				{To: "BolusRequested", Trigger: "i_BolusReq", Label: "Idle->BolusRequested"},
				{To: "EmptyAlarm", Trigger: "i_EmptyAlarm",
					Action: "o_MotorState := 0; o_BuzzerState := 1"},
			}},
			{Name: "BolusRequested", Transitions: []statechart.Transition{
				{To: "Infusion", Trigger: "before(100, E_CLK)",
					Action: "o_MotorState := 1; bolus_count := bolus_count + 1",
					Label:  "BolusRequested->Infusion"},
			}},
			{Name: "Infusion", Transitions: []statechart.Transition{
				{To: "Idle", Trigger: "at(4000, E_CLK)", Action: "o_MotorState := 0"},
				{To: "EmptyAlarm", Trigger: "i_EmptyAlarm",
					Action: "o_MotorState := 0; o_BuzzerState := 1"},
			}},
			{Name: "EmptyAlarm", Transitions: []statechart.Transition{
				{To: "Idle", Trigger: "i_ClearAlarm", Action: "o_BuzzerState := 0"},
			}},
		},
	}
}

// Board returns the pump hardware platform: the bolus-request button, the
// reservoir-empty detector and the alarm-clear button as sensors; the
// pump motor and the buzzer as actuators. Device latencies follow small
// embedded hardware: 5 ms sensor sampling, 3 ms motor spin-up, 1 ms
// buzzer.
func Board() hw.BoardConfig {
	return hw.BoardConfig{
		Name: "baxter-pca-sim",
		Sensors: []hw.SensorConfig{
			{Name: "bolus_button", Signal: SigBolusButton, SamplePeriod: 5 * time.Millisecond, ReadCost: 20 * time.Microsecond},
			{Name: "reservoir_empty", Signal: SigReservoirEmpty, SamplePeriod: 5 * time.Millisecond, ReadCost: 20 * time.Microsecond},
			{Name: "clear_button", Signal: SigClearButton, SamplePeriod: 5 * time.Millisecond, ReadCost: 20 * time.Microsecond},
		},
		Actuators: []hw.ActuatorConfig{
			{Name: "pump_motor", Signal: SigPumpMotor, Latency: 3 * time.Millisecond, WriteCost: 30 * time.Microsecond},
			{Name: "buzzer", Signal: SigBuzzer, Latency: time.Millisecond, WriteCost: 30 * time.Microsecond},
		},
	}
}

// PlatformConfig assembles the full implemented-system configuration for
// the Fig. 2 chart.
func PlatformConfig() platform.Config {
	return platform.Config{
		Chart: Chart(),
		Cost:  codegen.DefaultCostModel(),
		Board: Board(),
		Inputs: []platform.InputBinding{
			{Sensor: "bolus_button", Event: "i_BolusReq"},
			{Sensor: "reservoir_empty", Event: "i_EmptyAlarm"},
			{Sensor: "clear_button", Event: "i_ClearAlarm"},
		},
		Outputs: []platform.OutputBinding{
			{Var: "o_MotorState", Actuator: "pump_motor"},
			{Var: "o_BuzzerState", Actuator: "buzzer"},
		},
	}
}

// Factory returns a core.SystemFactory that assembles the pump on the
// given scheme. Each call to the factory builds a fresh deterministic
// system, recompiling the chart every time; campaigns should Precompile
// once and use FactoryPrebuilt instead.
func Factory(scheme func() platform.Scheme) core.SystemFactory {
	return func(level platform.Instrument) (*platform.System, error) {
		return platform.NewSystem(PlatformConfig(), scheme(), level)
	}
}

// Precompile compiles the pump's chart and validates its bindings once;
// the result is immutable and shareable across concurrent campaign
// workers.
func Precompile() (*platform.Prebuilt, error) {
	return platform.Precompile(PlatformConfig())
}

// FactoryPrebuilt returns a core.SystemFactory that assembles the pump
// from the shared precompiled program. scratch may be nil, or one
// worker's platform.Scratch to recycle the kernel and trace between the
// sequential runs of that worker.
func FactoryPrebuilt(pb *platform.Prebuilt, scheme func() platform.Scheme, scratch *platform.Scratch) core.SystemFactory {
	return func(level platform.Instrument) (*platform.System, error) {
		return pb.NewSystem(scheme(), level, scratch)
	}
}

// ButtonPress is the default physical press: the patient holds the bolus
// button for 60 ms.
const ButtonPress = 60 * time.Millisecond

// REQ1 is the paper's bolus-start requirement: the pump motor must start
// within 100 ms of the bolus-request button press.
func REQ1() core.Requirement {
	return core.Requirement{
		ID:   "REQ1",
		Text: "A bolus dose shall be started within 100ms when requested by the patient.",
		Stimulus: core.StimulusSpec{
			Signal: SigBolusButton,
			Value:  1, Rest: 0, Width: ButtonPress,
			Match: core.Equals(1),
		},
		Response: core.ResponseSpec{
			Signal: SigPumpMotor,
			Match:  core.AtLeast(1),
		},
		Bound:   100 * time.Millisecond,
		Timeout: time.Second,
	}
}

// REQ2 is an alarm-latency requirement from the GPCA safety requirement
// family: the buzzer must sound within 250 ms of the reservoir-empty
// condition.
func REQ2() core.Requirement {
	return core.Requirement{
		ID:   "REQ2",
		Text: "The empty-reservoir alarm shall sound within 250ms of detection.",
		Stimulus: core.StimulusSpec{
			Signal: SigReservoirEmpty,
			Value:  1, Rest: 0, Width: 0, // condition persists
			Match: core.Equals(1),
		},
		Response: core.ResponseSpec{
			Signal: SigBuzzer,
			Match:  core.Equals(1),
		},
		Bound:   250 * time.Millisecond,
		Timeout: time.Second,
	}
}

// REQ3 requires the alarm to silence within 200 ms of the clear button.
func REQ3() core.Requirement {
	return core.Requirement{
		ID:   "REQ3",
		Text: "The alarm shall be silenced within 200ms of the clear-alarm button.",
		Stimulus: core.StimulusSpec{
			Signal: SigClearButton,
			Value:  1, Rest: 0, Width: ButtonPress,
			Match: core.Equals(1),
		},
		Response: core.ResponseSpec{
			Signal: SigBuzzer,
			Match:  core.Equals(0),
		},
		Bound:   200 * time.Millisecond,
		Timeout: time.Second,
	}
}

// Requirements returns the full catalogue.
func Requirements() []core.Requirement {
	return []core.Requirement{REQ1(), REQ2(), REQ3()}
}

// TableIGenerator returns the stimulus generator of the paper's Table I
// scenario: n bolus requests from 50 ms on, 4.5 s apart so each clears
// the 4 s bolus and the 1 s timeout, each jittered by up to 200 ms.
func TableIGenerator(n int, seed uint64) core.Generator {
	return core.Generator{
		N: n, Start: 50 * time.Millisecond,
		Spacing:  4500 * time.Millisecond,
		Strategy: core.JitteredSpacing, Jitter: 200 * time.Millisecond,
		Seed: seed,
	}
}
