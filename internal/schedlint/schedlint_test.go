package schedlint

import (
	"testing"
	"time"

	"rmtest/internal/lint"
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

// TestMeasuredFromTrace runs a preemption on the simulator and checks
// the measured extraction against the static bounds. L computes 5 ms
// from t=0; H releases at t=1ms and preempts it for 1 ms. H measures
// 1 ms and L 6 ms, both exactly their response-time bounds.
func TestMeasuredFromTrace(t *testing.T) {
	ms := time.Millisecond
	k := sim.New()
	s := rtos.New(k)
	tr := s.Record()
	s.Spawn("L", 1, 0, func(tk *rtos.Task) { tk.Compute(5 * ms) })
	s.Spawn("H", 2, ms, func(tk *rtos.Task) { tk.Compute(ms) })
	k.Run(20 * ms)
	resp := MeasuredResponses(tr.Records())

	rep := mustAnalyze(t, Config{Tasks: []TaskSpec{
		{Name: "H", Prio: 2, Period: 20 * ms, WCET: ms},
		{Name: "L", Prio: 1, Period: 20 * ms, WCET: 5 * ms},
	}})
	for _, c := range []struct {
		name string
		want sim.Time
	}{{"H", ms}, {"L", 6 * ms}} {
		if got := resp[c.name]; got != c.want {
			t.Errorf("measured %s response = %v, want %v", c.name, got, c.want)
		}
	}
	for _, r := range rep.Tasks {
		if r.Response != resp[r.Task.Name] {
			t.Errorf("static R_%s = %v, want the measured %v", r.Task.Name, r.Response, resp[r.Task.Name])
		}
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
