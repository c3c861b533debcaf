package schedlint

import (
	"testing"
	"time"

	"rmtest/internal/lint"
	"rmtest/internal/rta"
	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

func findByCode(t *testing.T, rep *Report, code string) []lint.Finding {
	t.Helper()
	var out []lint.Finding
	for _, f := range rep.Findings {
		if f.Code == code {
			out = append(out, f)
		}
	}
	return out
}

func mustAnalyze(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestUnknownQueue: traffic on an undeclared queue is fatal.
func TestUnknownQueue(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{
		{Name: "A", Prio: 1, Period: 100 * time.Millisecond, WCET: time.Millisecond,
			Sends: []QueueUse{{Queue: "ghost", Items: 1}}},
	}}
	rep := mustAnalyze(t, cfg)
	fs := findByCode(t, rep, CodeUnknownResource)
	if len(fs) != 1 || fs[0].Severity != lint.Fatal {
		t.Fatalf("want one fatal unknown-resource, got %v", rep.Findings)
	}
}

// TestQueueBounds covers the capacity analysis: a finite drain-all
// bound, an undersized capacity warning, a missing consumer, and a
// rate-deficient fixed-count consumer.
func TestQueueBounds(t *testing.T) {
	base := func(capacity int) Config {
		return Config{
			Tasks: []TaskSpec{
				{Name: "P", Prio: 2, Period: 10 * time.Millisecond, WCET: time.Millisecond,
					Sends: []QueueUse{{Queue: "q", Items: 1}}},
				{Name: "C", Prio: 1, Period: 20 * time.Millisecond, WCET: time.Millisecond,
					Recvs: []QueueUse{{Queue: "q", DrainAll: true}}},
			},
			Queues: []QueueSpec{{Name: "q", Capacity: capacity}},
		}
	}
	// R_C = 1ms + ceil(R/10ms)*1ms -> 2ms. Window = 20ms + 2ms; producer
	// releases in the window: ceil(22/10) = 3.
	rep := mustAnalyze(t, base(8))
	if got, want := rep.Queues[0].Required, 3; got != want {
		t.Errorf("drain-all bound = %d, want %d", got, want)
	}
	if n := len(findByCode(t, rep, CodeQueueCapacity)); n != 0 {
		t.Errorf("capacity 8 >= bound 3: want no findings, got %d", n)
	}

	rep = mustAnalyze(t, base(2))
	if fs := findByCode(t, rep, CodeQueueCapacity); len(fs) != 1 || fs[0].Severity != lint.Warn {
		t.Errorf("capacity 2 < bound 3: want one warn, got %v", rep.Findings)
	}

	// No consumer: unbounded.
	cfg := base(8)
	cfg.Tasks = cfg.Tasks[:1]
	rep = mustAnalyze(t, cfg)
	if got := rep.Queues[0].Required; got != -1 {
		t.Errorf("no consumer: Required = %d, want -1", got)
	}
	if n := len(findByCode(t, rep, CodeQueueCapacity)); n != 1 {
		t.Errorf("no consumer: want one warn, got %d", n)
	}

	// Fixed-count consumer slower than the producer: unbounded.
	cfg = base(8)
	cfg.Tasks[1].Recvs = []QueueUse{{Queue: "q", Items: 1}}
	cfg.Tasks[1].Period = 40 * time.Millisecond // 1 per 40ms < 1 per 10ms
	rep = mustAnalyze(t, cfg)
	if got := rep.Queues[0].Required; got != -1 {
		t.Errorf("rate-deficient consumer: Required = %d, want -1", got)
	}
}

// TestMeasuredFromTrace runs a queue hand-off on the simulator and
// checks the measured extraction: per-release blocking, response times,
// and the static bounds dominating both. H waits on Recv for L's send,
// so L's response bound caps H's blocking; as H's B_i term it keeps H's
// response bound above the measurement.
func TestMeasuredFromTrace(t *testing.T) {
	k := sim.New()
	s := rtos.New(k)
	tr := s.Record()
	q := s.NewQueue("q", 1)
	// L computes 5 ms from t=0 and then sends; H releases at t=1ms and
	// waits for the value: blocked 1ms -> 5ms, then 1 ms of compute.
	s.Spawn("L", 1, 0, func(tk *rtos.Task) {
		tk.Compute(5 * time.Millisecond)
		tk.Send(q, 1)
	})
	s.Spawn("H", 2, time.Millisecond, func(tk *rtos.Task) {
		tk.Recv(q)
		tk.Compute(time.Millisecond)
	})
	k.Run(20 * time.Millisecond)
	recs := tr.Records()
	blocking := MeasuredBlocking(recs)
	resp := MeasuredResponses(recs)
	s.Shutdown()

	if got, want := blocking["H"], 4*time.Millisecond; got != want {
		t.Errorf("measured H blocking = %v, want %v", got, want)
	}
	if got, want := resp["H"], 5*time.Millisecond; got != want {
		// Blocked 4ms plus its own 1ms compute.
		t.Errorf("measured H response = %v, want %v", got, want)
	}

	tasks := []TaskSpec{
		{Name: "H", Prio: 2, Period: 20 * time.Millisecond, WCET: time.Millisecond},
		{Name: "L", Prio: 1, Period: 20 * time.Millisecond, WCET: 5 * time.Millisecond},
	}
	rep := mustAnalyze(t, Config{Tasks: tasks})
	respL := rep.Tasks[1].Response
	if respL < resp["L"] {
		t.Errorf("static R_L %v < measured %v", respL, resp["L"])
	}
	bounds, err := rta.Analyze([]rta.Task{
		{Name: "H", Prio: 2, Period: tasks[0].Period, WCET: tasks[0].WCET, Blocking: respL},
		{Name: "L", Prio: 1, Period: tasks[1].Period, WCET: tasks[1].WCET},
	})
	if err != nil {
		t.Fatal(err)
	}
	if respL < blocking["H"] {
		t.Errorf("static B_H %v < measured %v", respL, blocking["H"])
	}
	if bounds[0].Response < resp["H"] {
		t.Errorf("static R_H %v < measured %v", bounds[0].Response, resp["H"])
	}
}

// TestAnalyzeValidation: structural errors are errors, not findings.
func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(Config{}); err == nil {
		t.Error("empty task set must error")
	}
	dup := Config{Tasks: []TaskSpec{
		{Name: "A", Prio: 1, Period: time.Second, WCET: time.Millisecond},
		{Name: "A", Prio: 2, Period: time.Second, WCET: time.Millisecond},
	}}
	if _, err := Analyze(dup); err == nil {
		t.Error("duplicate task names must error")
	}
	jitter := Config{Tasks: []TaskSpec{
		{Name: "A", Prio: 1, Period: 10 * time.Millisecond, WCET: 2 * time.Millisecond, Jitter: -3 * time.Millisecond},
	}}
	if _, err := Analyze(jitter); err == nil {
		t.Error("negative jitter must error")
	}
	items := Config{
		Tasks: []TaskSpec{
			{Name: "P", Prio: 2, Period: 10 * time.Millisecond, WCET: time.Millisecond,
				Sends: []QueueUse{{Queue: "q", Items: -1}}},
			{Name: "C", Prio: 1, Period: 20 * time.Millisecond, WCET: time.Millisecond,
				Recvs: []QueueUse{{Queue: "q", DrainAll: true}}},
		},
		Queues: []QueueSpec{{Name: "q", Capacity: 8}},
	}
	if _, err := Analyze(items); err == nil {
		t.Error("negative item count must error")
	}
}
