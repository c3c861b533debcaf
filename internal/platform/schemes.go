package platform

import (
	"fmt"
	"time"

	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

// Scheme1 is the paper's single-threaded implementation: one periodic
// task reads the sensors, executes CODE(M) and writes the actuators at
// the end of the computation. The case study invokes it every 25 ms.
type Scheme1 struct {
	// Period is the task period (default 25 ms).
	Period sim.Time
	// Prio is the task priority (default 2).
	Prio int
}

// DefaultScheme1 returns the case-study configuration.
func DefaultScheme1() *Scheme1 {
	return &Scheme1{Period: 25 * time.Millisecond, Prio: 2}
}

// Name implements Scheme.
func (s *Scheme1) Name() string { return "scheme1" }

// Start implements Scheme.
func (s *Scheme1) Start(sys *System) error {
	period := s.Period
	if period <= 0 {
		period = 25 * time.Millisecond
	}
	ins := sys.bindInputs()
	sys.Sched.SpawnPeriodic("codeM", s.Prio, 0, period, func(tk *rtos.Task) {
		sys.taskEnv.tk = tk
		mask, updates := sys.inputScan(tk, ins)
		sys.applyInputs(tk, updates)
		for _, ch := range sys.stepChart(tk, mask) {
			sys.writeOutput(tk, ch.Name, ch.To)
		}
	})
	return nil
}

// outMsg carries one output change from the CODE(M) task to the actuation
// task over a FIFO queue.
type outMsg struct {
	name  string
	value int64
}

// Scheme2 is the paper's multi-threaded implementation: separate sensing
// and actuation tasks communicate with the CODE(M) task through FIFO
// queues, so sensors and actuators run at different frequencies from the
// CODE(M) execution. The case study chooses the periods so their sum
// along the sensing -> CODE(M) -> actuation path stays below the 100 ms
// requirement.
//
// A zero period or queue capacity selects its default; priorities are
// used as given (DefaultScheme2 sets 3/2/3).
type Scheme2 struct {
	SensePeriod sim.Time // zero means 20 ms
	CodePeriod  sim.Time // zero means 40 ms
	ActPeriod   sim.Time // zero means 20 ms
	SensePrio   int
	CodePrio    int
	ActPrio     int
	QueueCap    int // zero means 8
}

// DefaultScheme2 returns the case-study configuration
// (20 + 40 + 20 = 80 ms < 100 ms).
func DefaultScheme2() *Scheme2 {
	return &Scheme2{
		SensePeriod: 20 * time.Millisecond,
		CodePeriod:  40 * time.Millisecond,
		ActPeriod:   20 * time.Millisecond,
		SensePrio:   3,
		CodePrio:    2,
		ActPrio:     3,
		QueueCap:    8,
	}
}

// Name implements Scheme.
func (s *Scheme2) Name() string { return "scheme2" }

// Start implements Scheme.
func (s *Scheme2) Start(sys *System) error {
	s.start(sys)
	return nil
}

// withDefaults returns a copy of s with every non-positive period and
// queue capacity replaced by its default. Start and StaticModel both
// read the configuration through it, so the simulated and the analysed
// pipeline agree.
func (s *Scheme2) withDefaults() Scheme2 {
	c := *s
	if c.SensePeriod <= 0 {
		c.SensePeriod = 20 * time.Millisecond
	}
	if c.CodePeriod <= 0 {
		c.CodePeriod = 40 * time.Millisecond
	}
	if c.ActPeriod <= 0 {
		c.ActPeriod = 20 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8
	}
	return c
}

// start spawns the three pipeline tasks; shared with Scheme3.
func (s *Scheme2) start(sys *System) {
	c := s.withDefaults()
	inQ := sys.Sched.NewQueue("inQ", c.QueueCap)
	outQ := sys.Sched.NewQueue("outQ", c.QueueCap)

	ins := sys.bindInputs()
	sys.Sched.SpawnPeriodic("sense", c.SensePrio, 0, c.SensePeriod, func(tk *rtos.Task) {
		_, updates := sys.inputScan(tk, ins)
		for _, u := range updates {
			if !inQ.TrySend(u) {
				sys.inputsDropped++
			}
		}
	})

	sys.Sched.SpawnPeriodic("codeM", c.CodePrio, 0, c.CodePeriod, func(tk *rtos.Task) {
		sys.taskEnv.tk = tk
		var mask uint64
		var updates []varUpdate
		for {
			v, ok := inQ.TryRecv()
			if !ok {
				break
			}
			u := v.(varUpdate)
			mask |= u.event
			updates = append(updates, u)
		}
		sys.applyInputs(tk, updates)
		for _, ch := range sys.stepChart(tk, mask) {
			if !outQ.TrySend(outMsg{name: ch.Name, value: ch.To}) {
				sys.outputsDropped++
			}
		}
	})

	sys.Sched.SpawnPeriodic("actuate", c.ActPrio, 0, c.ActPeriod, func(tk *rtos.Task) {
		for {
			v, ok := outQ.TryRecv()
			if !ok {
				return
			}
			msg := v.(outMsg)
			sys.writeOutput(tk, msg.name, msg.value)
		}
	})
}

// InterferenceTask is one additional workload thread of Scheme3.
type InterferenceTask struct {
	Name   string
	Prio   int
	Period sim.Time
	Burst  sim.Time // CPU consumed per release
}

// Scheme3 is the paper's non-stand-alone implementation: Scheme2 plus
// additional threads (network drivers and similar) that do not
// communicate with CODE(M) but compete for the CPU. The case study runs
// three: one at the CODE(M) task's priority, one higher and one lower.
type Scheme3 struct {
	Scheme2
	Interference []InterferenceTask
}

// DefaultScheme3 returns the case-study configuration: the Scheme2
// pipeline plus three interference threads. The higher-priority thread's
// bursts are long enough to starve the pipeline past the 100 ms deadline
// — and occasionally past a whole button press, which produces the MAX
// (response never observed) entries of Table I.
func DefaultScheme3() *Scheme3 {
	return &Scheme3{
		Scheme2: *DefaultScheme2(),
		Interference: []InterferenceTask{
			{Name: "netdrv", Prio: 4, Period: 130 * time.Millisecond, Burst: 80 * time.Millisecond},
			{Name: "logger", Prio: 2, Period: 70 * time.Millisecond, Burst: 30 * time.Millisecond},
			{Name: "housekeeping", Prio: 1, Period: 40 * time.Millisecond, Burst: 12 * time.Millisecond},
		},
	}
}

// Name implements Scheme.
func (s *Scheme3) Name() string { return "scheme3" }

// Start implements Scheme. It rejects an interference task with a
// non-positive period or a negative burst.
func (s *Scheme3) Start(sys *System) error {
	for _, it := range s.Interference {
		if it.Period <= 0 || it.Burst < 0 {
			return fmt.Errorf("platform: scheme3 interference task %q needs a positive period and a non-negative burst, has period %v and burst %v", it.Name, it.Period, it.Burst)
		}
	}
	s.start(sys)
	for _, it := range s.Interference {
		burst := it.Burst
		sys.Sched.SpawnPeriodic(it.Name, it.Prio, 0, it.Period, func(tk *rtos.Task) {
			tk.Compute(burst)
		})
	}
	return nil
}
