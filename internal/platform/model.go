package platform

import (
	"rmtest/internal/schedlint"
	"rmtest/internal/sim"
)

// PipelineWCET carries the per-task worst-case execution times and
// queue traffic the static platform model needs but cannot derive from
// the scheme parameters alone: the WCETs come from the board's device
// costs plus the bytecode WCET analysis (lint.WCETReport), and the item
// counts from the chart's variable/output structure.
type PipelineWCET struct {
	// Sense, Code and Act are the WCETs of the three pipeline tasks.
	Sense sim.Time
	Code  sim.Time
	Act   sim.Time
	// SenseItems is the worst-case number of input updates the sensing
	// task enqueues per release (bounded by the number of bound sensors,
	// counting an event and a variable route separately).
	SenseItems int
	// CodeItems is the worst-case number of output changes the CODE(M)
	// task enqueues per release (bounded by the number of output
	// variables).
	CodeItems int
}

// StaticModel declares the Scheme2 pipeline as a schedlint platform
// configuration: the three periodic tasks with their priorities and
// periods, the two FIFO queues with the configured capacity, and the
// queue traffic between them. The pipeline polls its queues with
// TrySend/TryRecv, and no task in the simulated RTOS can wait on a
// queue, so every task's blocking term is zero.
func (s *Scheme2) StaticModel(w PipelineWCET) schedlint.Config {
	c := s.withDefaults()
	return schedlint.Config{
		Tasks: []schedlint.TaskSpec{
			{
				Name: "sense", Prio: c.SensePrio, Period: c.SensePeriod, WCET: w.Sense,
				Sends: []schedlint.QueueUse{{Queue: "inQ", Items: w.SenseItems}},
			},
			{
				Name: "codeM", Prio: c.CodePrio, Period: c.CodePeriod, WCET: w.Code,
				Recvs: []schedlint.QueueUse{{Queue: "inQ", DrainAll: true}},
				Sends: []schedlint.QueueUse{{Queue: "outQ", Items: w.CodeItems}},
			},
			{
				Name: "actuate", Prio: c.ActPrio, Period: c.ActPeriod, WCET: w.Act,
				Recvs: []schedlint.QueueUse{{Queue: "outQ", DrainAll: true}},
			},
		},
		Queues: []schedlint.QueueSpec{
			{Name: "inQ", Capacity: c.QueueCap},
			{Name: "outQ", Capacity: c.QueueCap},
		},
	}
}

// StaticModel extends the Scheme2 pipeline model with the interference
// threads: pure CPU burners with no queue traffic, which the analysis
// sees only as preemption (and, at equal priority, FIFO blocking).
func (s *Scheme3) StaticModel(w PipelineWCET) schedlint.Config {
	cfg := s.Scheme2.StaticModel(w)
	for _, it := range s.Interference {
		cfg.Tasks = append(cfg.Tasks, schedlint.TaskSpec{
			Name: it.Name, Prio: it.Prio, Period: it.Period, WCET: it.Burst,
		})
	}
	return cfg
}
