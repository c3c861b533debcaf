// Package railcrossing is the framework's second case study: a railroad
// crossing gate controller. When the approach sensor detects a train the
// gate must start lowering within 200 ms and the warning lights must be
// flashing within 100 ms; the gate takes 3 s to travel in either
// direction.
//
// The package carries the chart, the board and platform configuration and
// the timing-requirement catalogue, so the example program, the CLI and
// the test suite all exercise the same model.
package railcrossing

import (
	"time"

	"rmtest/internal/codegen"
	"rmtest/internal/core"
	"rmtest/internal/hw"
	"rmtest/internal/platform"
	"rmtest/internal/statechart"
)

// Signal names at the environment boundary.
const (
	SigApproach = "sig_approach"
	SigClear    = "sig_clear"
	SigGate     = "sig_gate"
	SigLights   = "sig_lights"
)

// Chart returns the crossing controller model: Open, Lowering, Closed
// and Raising, driven by the approach/clear track circuits. The E_CLK
// tick is 1 ms, and the gate travels 3000 ticks (3 s) each way. o_Gate
// encodes the gate position: 0 up, 1 moving, 2 down.
func Chart() *statechart.Chart {
	return &statechart.Chart{
		Name:       "crossing",
		TickPeriod: time.Millisecond,
		Events:     []string{"i_Approach", "i_Clear"},
		Vars: []statechart.VarDecl{
			{Name: "o_Gate", Type: statechart.Int, Kind: statechart.Output},
			{Name: "o_Lights", Type: statechart.Bool, Kind: statechart.Output},
			{Name: "trains", Type: statechart.Int, Kind: statechart.Local},
		},
		Initial: "Open",
		States: []*statechart.State{
			{Name: "Open", Transitions: []statechart.Transition{
				{To: "Lowering", Trigger: "i_Approach",
					Action: "o_Lights := 1; o_Gate := 1; trains := trains + 1"},
			}},
			{Name: "Lowering", Transitions: []statechart.Transition{
				{To: "Closed", Trigger: "after(3000, E_CLK)", Action: "o_Gate := 2"},
			}},
			{Name: "Closed", Transitions: []statechart.Transition{
				{To: "Raising", Trigger: "i_Clear", Action: "o_Gate := 1"},
			}},
			{Name: "Raising", Transitions: []statechart.Transition{
				{To: "Open", Trigger: "after(3000, E_CLK)",
					Action: "o_Gate := 0; o_Lights := 0"},
			}},
		},
	}
}

// Board returns the crossing hardware: the two track circuits as sensors
// and the gate motor and warning lights as actuators.
func Board() hw.BoardConfig {
	return hw.BoardConfig{
		Name: "crossing-board",
		Sensors: []hw.SensorConfig{
			{Name: "approach", Signal: SigApproach, SamplePeriod: 10 * time.Millisecond},
			{Name: "clear", Signal: SigClear, SamplePeriod: 10 * time.Millisecond},
		},
		Actuators: []hw.ActuatorConfig{
			{Name: "gate_motor", Signal: SigGate, Latency: 20 * time.Millisecond},
			{Name: "lights", Signal: SigLights, Latency: 2 * time.Millisecond},
		},
	}
}

// PlatformConfig assembles the full implemented-system configuration.
func PlatformConfig() platform.Config {
	return platform.Config{
		Chart: Chart(),
		Cost:  codegen.DefaultCostModel(),
		Board: Board(),
		Inputs: []platform.InputBinding{
			{Sensor: "approach", Event: "i_Approach"},
			{Sensor: "clear", Event: "i_Clear"},
		},
		Outputs: []platform.OutputBinding{
			{Var: "o_Gate", Actuator: "gate_motor"},
			{Var: "o_Lights", Actuator: "lights"},
		},
	}
}

// GateRequirement is XING-1: the gate shall start lowering within 200 ms
// of train detection.
func GateRequirement() core.Requirement {
	return core.Requirement{
		ID:   "XING-1",
		Text: "The gate shall start lowering within 200ms of train detection.",
		Stimulus: core.StimulusSpec{
			Signal: SigApproach, Value: 1, Rest: 0,
			Width: 800 * time.Millisecond, Match: core.Equals(1),
		},
		Response: core.ResponseSpec{Signal: SigGate, Match: core.AtLeast(1)},
		Bound:    200 * time.Millisecond,
		Timeout:  2 * time.Second,
	}
}

// LightsRequirement is XING-2: the warning lights shall be on within
// 100 ms of train detection.
func LightsRequirement() core.Requirement {
	return core.Requirement{
		ID:   "XING-2",
		Text: "The warning lights shall flash within 100ms of train detection.",
		Stimulus: core.StimulusSpec{
			Signal: SigApproach, Value: 1, Rest: 0,
			Width: 800 * time.Millisecond, Match: core.Equals(1),
		},
		Response: core.ResponseSpec{Signal: SigLights, Match: core.Equals(1)},
		Bound:    100 * time.Millisecond,
		Timeout:  2 * time.Second,
	}
}

// Requirements returns the catalogue.
func Requirements() []core.Requirement {
	return []core.Requirement{GateRequirement(), LightsRequirement()}
}
