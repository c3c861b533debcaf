package platform

import (
	"fmt"

	"rmtest/internal/hw"
	"rmtest/internal/lint"
	"rmtest/internal/schedlint"
	"rmtest/internal/sim"
)

// StaticModel declares the Scheme2 pipeline on cfg as a schedlint
// platform configuration: the three periodic tasks with their priorities
// and periods, the two FIFO queues with the configured capacity, and the
// queue traffic between them. Every input comes from cfg and code, lint's
// WCET bounds of cfg's chart:
//
//   - sensing reads every bound sensor once per release, so its WCET is
//     the sum of their read costs, and it enqueues at most one update per
//     event and one per variable the bindings route;
//   - CODE(M)'s WCET is code.Invocation over its period, and it enqueues
//     at most one change per output binding;
//   - actuation writes the actuator of each output binding once per
//     change, so its WCET is the sum of their write costs.
//
// The pipeline polls its queues with TrySend/TryRecv, and no task in the
// simulated RTOS can wait on a queue, so every task's blocking term is
// zero. A binding that names a device cfg's board lacks is an error.
func (s *Scheme2) StaticModel(cfg Config, code lint.WCETReport) (schedlint.Config, error) {
	c := s.withDefaults()
	var sense, act sim.Time
	senseItems := 0
	for _, ib := range cfg.Inputs {
		sc, ok := sensorConfig(cfg, ib.Sensor)
		if !ok {
			return schedlint.Config{}, fmt.Errorf("platform: input binding references unknown sensor %q", ib.Sensor)
		}
		sense += sc.ReadCost
		if ib.Event != "" {
			senseItems++
		}
		if ib.Var != "" {
			senseItems++
		}
	}
	for _, ob := range cfg.Outputs {
		ac, ok := actuatorConfig(cfg, ob.Actuator)
		if !ok {
			return schedlint.Config{}, fmt.Errorf("platform: output binding references unknown actuator %q", ob.Actuator)
		}
		act += ac.WriteCost
	}
	return schedlint.Config{
		Tasks: []schedlint.TaskSpec{
			{
				Name: "sense", Prio: c.SensePrio, Period: c.SensePeriod, WCET: sense,
				Sends: []schedlint.QueueUse{{Queue: "inQ", Items: senseItems}},
			},
			{
				Name: "codeM", Prio: c.CodePrio, Period: c.CodePeriod, WCET: code.Invocation(c.CodePeriod),
				Recvs: []schedlint.QueueUse{{Queue: "inQ", DrainAll: true}},
				Sends: []schedlint.QueueUse{{Queue: "outQ", Items: len(cfg.Outputs)}},
			},
			{
				Name: "actuate", Prio: c.ActPrio, Period: c.ActPeriod, WCET: act,
				Recvs: []schedlint.QueueUse{{Queue: "outQ", DrainAll: true}},
			},
		},
		Queues: []schedlint.QueueSpec{
			{Name: "inQ", Capacity: c.QueueCap},
			{Name: "outQ", Capacity: c.QueueCap},
		},
	}, nil
}

// StaticModel extends the Scheme2 pipeline model with the interference
// threads: pure CPU burners with no queue traffic, which the analysis
// sees only as preemption (and, at equal priority, FIFO blocking).
func (s *Scheme3) StaticModel(cfg Config, code lint.WCETReport) (schedlint.Config, error) {
	model, err := s.Scheme2.StaticModel(cfg, code)
	if err != nil {
		return schedlint.Config{}, err
	}
	for _, it := range s.Interference {
		model.Tasks = append(model.Tasks, schedlint.TaskSpec{
			Name: it.Name, Prio: it.Prio, Period: it.Period, WCET: it.Burst,
		})
	}
	return model, nil
}

// DeviceLatencies returns the device latencies an end-to-end m -> c
// bound adds to the pipeline's response times: latch, the longest time a
// bound sensor observing the stimulus signal takes to latch a change
// (its sample period times its debounce count, at least one sample), and
// act, the longest actuation latency of a bound actuator driving the
// response signal. A signal that no bound device observes or drives is
// an error.
func (cfg Config) DeviceLatencies(stimulus, response string) (latch, act sim.Time, err error) {
	latch, act = -1, -1
	for _, ib := range cfg.Inputs {
		if sc, ok := sensorConfig(cfg, ib.Sensor); ok && sc.Signal == stimulus {
			latch = max(latch, sc.SamplePeriod*sim.Time(max(1, sc.Debounce)))
		}
	}
	for _, ob := range cfg.Outputs {
		if ac, ok := actuatorConfig(cfg, ob.Actuator); ok && ac.Signal == response {
			act = max(act, ac.Latency)
		}
	}
	switch {
	case latch < 0:
		return 0, 0, fmt.Errorf("platform: no bound sensor observes the stimulus signal %q", stimulus)
	case act < 0:
		return 0, 0, fmt.Errorf("platform: no bound actuator drives the response signal %q", response)
	}
	return latch, act, nil
}

// sensorConfig returns the configuration of the sensor called name on
// cfg's board.
func sensorConfig(cfg Config, name string) (hw.SensorConfig, bool) {
	for _, sc := range cfg.Board.Sensors {
		if sc.Name == name {
			return sc, true
		}
	}
	return hw.SensorConfig{}, false
}

// actuatorConfig returns the configuration of the actuator called name
// on cfg's board.
func actuatorConfig(cfg Config, name string) (hw.ActuatorConfig, bool) {
	for _, ac := range cfg.Board.Actuators {
		if ac.Name == name {
			return ac, true
		}
	}
	return hw.ActuatorConfig{}, false
}
