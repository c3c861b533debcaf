// Thermostat runs a closed-loop control example: a heater chart with
// hysteresis drives room temperature through the environment's physics
// (an integrator), and the framework checks the reaction-time requirement
// "the heater starts within 500 ms of the temperature falling below the
// low threshold". The closed loop makes the m-events endogenous: the
// plant, not a scripted patient, produces the stimuli.
package main

import (
	"fmt"
	"log"
	"time"

	"rmtest"
	"rmtest/internal/fourvar"
)

func thermostatChart() *rmtest.Chart {
	return &rmtest.Chart{
		Name:       "thermostat",
		TickPeriod: time.Millisecond,
		Vars: []rmtest.VarDecl{
			{Name: "temp", Type: rmtest.Int, Kind: rmtest.In}, // tenths of a degree
			{Name: "o_Heater", Type: rmtest.Int, Kind: rmtest.Out},
		},
		Initial: "Off",
		States: []*rmtest.State{
			{Name: "Off", Transitions: []rmtest.Transition{
				{To: "Heating", Guard: "temp < 195", Action: "o_Heater := 1"},
			}},
			{Name: "Heating", Transitions: []rmtest.Transition{
				{To: "Off", Guard: "temp > 215", Action: "o_Heater := 0"},
			}},
		},
	}
}

func main() {
	cfg := rmtest.PlatformConfig{
		Chart: thermostatChart(),
		Cost:  rmtest.DefaultCostModel(),
		Board: rmtest.BoardConfig{
			Name: "thermostat-board",
			Sensors: []rmtest.SensorConfig{
				{Name: "temp_sensor", Signal: "sig_temp", SamplePeriod: 50 * time.Millisecond},
			},
			Actuators: []rmtest.ActuatorConfig{
				{Name: "heater", Signal: "sig_heater", Latency: 20 * time.Millisecond},
			},
		},
		Inputs:  []rmtest.InputBinding{{Sensor: "temp_sensor", Var: "temp"}},
		Outputs: []rmtest.OutputBinding{{Var: "o_Heater", Actuator: "heater"}},
	}
	sys, err := rmtest.NewSystem(cfg, rmtest.Scheme1(), rmtest.MLevel)
	if err != nil {
		log.Fatal(err)
	}

	// Plant physics: the room starts warm (22.0 deg = 220) and loses one
	// tenth of a degree per 100 ms; the running heater adds three, for a
	// net warming of +2 per step.
	e := sys.Env
	e.Set("sig_temp", 220)
	e.Kernel().Periodic(100*time.Millisecond, 100*time.Millisecond, func(uint64) {
		t := e.Get("sig_temp") - 1
		if e.Get("sig_heater") >= 1 {
			t += 3
		}
		e.Set("sig_temp", t)
	})

	sys.Run(60 * time.Second)

	// Survey the oscillation.
	switches := sys.Trace.CountOf(fourvar.Controlled, "sig_heater")
	fmt.Printf("heater switched %d times over %v; final temp %.1f deg\n",
		switches, sys.Kernel.Now(), float64(e.Get("sig_temp"))/10)
	if switches < 4 {
		log.Fatal("thermostat failed to oscillate")
	}

	// Requirement: heater on within 500 ms of the temperature falling
	// below 19.5 deg. Evaluate every such crossing in the closed loop.
	bound := 500 * time.Millisecond
	crossings := 0
	violations := 0
	var worst time.Duration
	for ev := range sys.Trace.OfSeq(fourvar.Monitored, "sig_temp") {
		if ev.Value != 194 { // first sample below the threshold
			continue
		}
		crossings++
		on, ok := sys.Trace.FirstAt(fourvar.Controlled, "sig_heater", ev.At, func(v int64) bool { return v >= 1 })
		if !ok {
			violations++
			continue
		}
		d := on.At - ev.At
		if d > worst {
			worst = d
		}
		if d > bound {
			violations++
		}
	}
	fmt.Printf("reaction requirement (<= %v): %d crossings, %d violations, worst %v\n",
		bound, crossings, violations, worst)
	if crossings == 0 || violations > 0 {
		log.Fatal("thermostat reaction requirement violated")
	}

	// The M-level chain for the first crossing, with the i-event being
	// the sampled temperature reaching CODE(M).
	spec := fourvar.MatchSpec{
		MName: "sig_temp", MPred: func(v int64) bool { return v == 194 },
		IName: "temp",
		OName: "o_Heater", OPred: func(v int64) bool { return v >= 1 },
		CName: "sig_heater",
	}
	if seg, ok := fourvar.Match(sys.Trace, sys.TransTrace, spec, 0); ok {
		fmt.Println()
		fmt.Print(rmtest.RenderDiagram(seg, 72))
	}
}
