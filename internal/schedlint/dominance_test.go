package schedlint

// Dominance of the static bounds over the simulator: on a declared task
// and queue configuration, every response-time bound and queue backlog
// bound the analysis computes must cover what the RTOS simulator
// measures when it runs the same configuration.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

// simulate runs cfg on the RTOS simulator until horizon. Every task is
// periodic from time zero: each release computes its WCET, then sends
// its items with TrySend and receives with TryRecv, emptying the queue
// when the use is DrainAll. It returns the scheduler trace and each
// queue's high-water mark.
func simulate(cfg Config, horizon sim.Time) ([]rtos.TraceRecord, map[string]int) {
	k := sim.New()
	s := rtos.New(k)
	tr := s.Record()
	queues := map[string]*rtos.Queue{}
	for _, q := range cfg.Queues {
		queues[q.Name] = s.NewQueue(q.Name, q.Capacity)
	}
	for _, spec := range cfg.Tasks {
		s.SpawnPeriodic(spec.Name, spec.Prio, 0, spec.Period, func(tk *rtos.Task) {
			tk.Compute(spec.WCET)
			for _, u := range spec.Sends {
				for i := 0; i < u.Items; i++ {
					queues[u.Queue].TrySend(i)
				}
			}
			for _, u := range spec.Recvs {
				for i := 0; u.DrainAll || i < u.Items; i++ {
					if _, ok := queues[u.Queue].TryRecv(); !ok {
						break
					}
				}
			}
		})
	}
	k.Run(horizon)
	recs := tr.Records()
	depth := make(map[string]int, len(queues))
	for name, q := range queues {
		depth[name] = q.MaxDepth()
	}
	return recs, depth
}

// checkDominance analyzes cfg, simulates it for horizon, and fails t
// wherever a measurement exceeds its static bound: the response of a
// schedulable task, and the peak depth of a queue with a finite backlog
// bound. It returns each queue's simulated peak depth.
func checkDominance(t *testing.T, cfg Config, horizon sim.Time) map[string]int {
	t.Helper()
	rep := mustAnalyze(t, cfg)
	recs, depth := simulate(cfg, horizon)
	resp := MeasuredResponses(recs)
	for _, r := range rep.Tasks {
		if !r.Schedulable {
			continue
		}
		name := r.Task.Name
		got, ok := resp[name]
		switch {
		case !ok:
			t.Errorf("schedulable task %q completed no release", name)
		case got > r.Response:
			t.Errorf("task %q measured response %v > static bound %v", name, got, r.Response)
		}
	}
	for _, q := range rep.Queues {
		if q.Required >= 0 && depth[q.Name] > q.Required {
			t.Errorf("queue %q peak depth %d > static backlog bound %d", q.Name, depth[q.Name], q.Required)
		}
	}
	if t.Failed() {
		t.Logf("config: %+v\nreport:\n%s", cfg, rep)
	}
	return depth
}

// randomConfig draws a platform from seed: 2-5 periodic tasks with
// priorities 1-4, periods from a small set and WCETs up to a third of
// the period on a 0.5 ms grid (so releases, drains and sends often
// coincide), and 0-2 unbounded queues, each fed by one producer sending
// 1-3 items per release and emptied by one drain-all consumer.
func randomConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	const grid = 500 * time.Microsecond
	periods := []sim.Time{5, 10, 20, 25, 40, 50, 100}
	var cfg Config
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		period := periods[rng.Intn(len(periods))] * time.Millisecond
		cfg.Tasks = append(cfg.Tasks, TaskSpec{
			Name:   fmt.Sprintf("t%d", i),
			Prio:   1 + rng.Intn(4),
			Period: period,
			WCET:   grid * sim.Time(1+rng.Int63n(int64(period/3/grid))),
		})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		name := fmt.Sprintf("q%d", i)
		cfg.Queues = append(cfg.Queues, QueueSpec{Name: name})
		p := rng.Intn(len(cfg.Tasks))
		c := (p + 1 + rng.Intn(len(cfg.Tasks)-1)) % len(cfg.Tasks)
		cfg.Tasks[p].Sends = append(cfg.Tasks[p].Sends, QueueUse{Queue: name, Items: 1 + rng.Intn(3)})
		cfg.Tasks[c].Recvs = append(cfg.Tasks[c].Recvs, QueueUse{Queue: name, DrainAll: true})
	}
	return cfg
}

// FuzzStaticDominance checks on random task and queue configurations
// that the response-time bounds and the queue backlog bounds dominate a
// 2 s simulation of the same configuration.
func FuzzStaticDominance(f *testing.F) {
	for seed := int64(0); seed < 300; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkDominance(t, randomConfig(seed), 2*time.Second)
	})
}

// TestQueueBoundCoversLateProducer: a low-priority producer that an
// interferer delays sends late in one release and early in the next, so
// two of its sends land between the same two drains even though its
// period exceeds the consumer's drain window. The backlog bound must
// count the producer's response time as output jitter.
func TestQueueBoundCoversLateProducer(t *testing.T) {
	ms := time.Millisecond
	cfg := Config{
		Tasks: []TaskSpec{
			{Name: "C", Prio: 3, Period: 20 * ms, WCET: 2 * ms,
				Recvs: []QueueUse{{Queue: "q", DrainAll: true}}},
			{Name: "I", Prio: 2, Period: 50 * ms, WCET: 10 * ms},
			{Name: "P", Prio: 1, Period: 25 * ms, WCET: 4 * ms,
				Sends: []QueueUse{{Queue: "q", Items: 1}}},
		},
		Queues: []QueueSpec{{Name: "q"}},
	}
	// P sends at 66 ms and 79 ms, between C's drains at 62 ms and 82 ms.
	if depth := checkDominance(t, cfg, time.Second); depth["q"] != 2 {
		t.Errorf("simulated peak depth %d, want 2 (the late-producer schedule did not occur)", depth["q"])
	}
}
