package schedlint

import (
	"math/rand"
	"strings"
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

// TestBlockingPIPMinRule exercises the Sha/Rajkumar/Lehoczky bound: one
// lower-priority task holding two relevant mutexes blocks the high task
// at most once, so the per-task sum (its longest single section) wins
// over the per-resource sum.
func TestBlockingPIPMinRule(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{
		{Name: "H", Prio: 3, Period: 100 * time.Millisecond, WCET: time.Millisecond,
			Sections: []Section{{Resource: "m1", Hold: time.Millisecond}, {Resource: "m2", Hold: time.Millisecond}}},
		{Name: "L", Prio: 1, Period: 100 * time.Millisecond, WCET: 10 * time.Millisecond,
			Sections: []Section{{Resource: "m1", Hold: 3 * time.Millisecond}, {Resource: "m2", Hold: 2 * time.Millisecond}}},
	}}
	rep := mustAnalyze(t, cfg)
	if got, want := rep.Blocking["H"], 3*time.Millisecond; got != want {
		t.Errorf("B_H = %v, want %v (longest single section of the one lower task)", got, want)
	}
	if got := rep.Blocking["L"]; got != 0 {
		t.Errorf("B_L = %v, want 0 (lowest priority is never blocked by lower tasks)", got)
	}

	// Split the sections across two lower tasks: now each blocks once, so
	// both sums agree at 5 ms.
	cfg.Tasks[1].Sections = []Section{{Resource: "m1", Hold: 3 * time.Millisecond}}
	cfg.Tasks = append(cfg.Tasks, TaskSpec{
		Name: "L2", Prio: 2, Period: 100 * time.Millisecond, WCET: 10 * time.Millisecond,
		Sections: []Section{{Resource: "m2", Hold: 2 * time.Millisecond}},
	})
	rep = mustAnalyze(t, cfg)
	if got, want := rep.Blocking["H"], 5*time.Millisecond; got != want {
		t.Errorf("B_H = %v, want %v (one section per lower task)", got, want)
	}
}

// TestBlockingPushThrough checks the ceiling rule: a medium task that
// never touches the mutex still inherits blocking when a lower task's
// section can run at inherited high priority.
func TestBlockingPushThrough(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{
		{Name: "H", Prio: 3, Period: 100 * time.Millisecond, WCET: time.Millisecond,
			Sections: []Section{{Resource: "m", Hold: time.Millisecond}}},
		{Name: "M", Prio: 2, Period: 100 * time.Millisecond, WCET: time.Millisecond},
		{Name: "L", Prio: 1, Period: 100 * time.Millisecond, WCET: 10 * time.Millisecond,
			Sections: []Section{{Resource: "m", Hold: 4 * time.Millisecond}}},
	}}
	rep := mustAnalyze(t, cfg)
	if got, want := rep.Blocking["M"], 4*time.Millisecond; got != want {
		t.Errorf("push-through B_M = %v, want %v", got, want)
	}
	if got, want := rep.Blocking["H"], 4*time.Millisecond; got != want {
		t.Errorf("direct B_H = %v, want %v", got, want)
	}
	// The blocking term must land in the response times: M's bound grows
	// by exactly B_M over a blocking-free analysis.
	for _, r := range rep.Tasks {
		if r.Task.Name == "M" && r.Task.Blocking != 4*time.Millisecond {
			t.Errorf("rta task M carries Blocking %v, want 4ms", r.Task.Blocking)
		}
	}
}

// TestBlockingSemaphoreDirectOnly: semaphore sections charge direct
// blocking to their users but give no push-through term (no
// inheritance), and sharing them across a priority gap warns.
func TestBlockingSemaphoreDirectOnly(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{
		{Name: "H", Prio: 3, Period: 100 * time.Millisecond, WCET: time.Millisecond,
			SemSections: []Section{{Resource: "s", Hold: time.Millisecond}}},
		{Name: "M", Prio: 2, Period: 100 * time.Millisecond, WCET: time.Millisecond},
		{Name: "L", Prio: 1, Period: 100 * time.Millisecond, WCET: 10 * time.Millisecond,
			SemSections: []Section{{Resource: "s", Hold: 2 * time.Millisecond}}},
	}}
	rep := mustAnalyze(t, cfg)
	if got, want := rep.Blocking["H"], 2*time.Millisecond; got != want {
		t.Errorf("semaphore direct B_H = %v, want %v", got, want)
	}
	if got := rep.Blocking["M"]; got != 0 {
		t.Errorf("semaphore push-through B_M = %v, want 0 (no inheritance, no push-through)", got)
	}
	inv := findByCode(t, rep, CodeUnboundedInversion)
	if len(inv) != 1 || inv[0].Severity != lint.Warn {
		t.Fatalf("want one unbounded-priority-inversion warn, got %v", rep.Findings)
	}
	if !strings.Contains(inv[0].Detail, "M") {
		t.Errorf("inversion finding should name the middle task: %s", inv[0].Detail)
	}

	// Without a middle task the inversion is bounded by the section (the
	// semaphore wakes waiters in priority order): no warning.
	cfg.Tasks = []TaskSpec{cfg.Tasks[0], cfg.Tasks[2]}
	rep = mustAnalyze(t, cfg)
	if n := len(findByCode(t, rep, CodeUnboundedInversion)); n != 0 {
		t.Errorf("no middle task: want 0 inversion findings, got %d", n)
	}
}

// TestSelfDeadlock: re-acquiring a held (non-recursive) mutex is fatal.
func TestSelfDeadlock(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{
		{Name: "A", Prio: 1, Period: 100 * time.Millisecond, WCET: time.Millisecond,
			Sections: []Section{{Resource: "m", Hold: 2 * time.Millisecond,
				Inner: []Section{{Resource: "m", Hold: time.Millisecond}}}}},
	}}
	rep := mustAnalyze(t, cfg)
	fs := findByCode(t, rep, CodeSelfDeadlock)
	if len(fs) != 1 || fs[0].Severity != lint.Fatal {
		t.Fatalf("want one fatal self-deadlock, got %v", rep.Findings)
	}
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

// TestLockOrderCycleConfirmedBySimulator is the end-to-end deadlock
// check the issue pins down: the detector flags a two-mutex ABBA
// configuration as a fatal lock-order cycle, and running the equivalent
// task set on the RTOS simulator confirms both tasks end up permanently
// blocked on each other's mutex, with the trace attributing the holders.
func TestLockOrderCycleConfirmedBySimulator(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{
		{Name: "A", Prio: 2, Period: 100 * time.Millisecond, WCET: 5 * time.Millisecond,
			Sections: []Section{{Resource: "m1", Hold: 4 * time.Millisecond,
				Inner: []Section{{Resource: "m2", Hold: 2 * time.Millisecond}}}}},
		{Name: "B", Prio: 1, Period: 100 * time.Millisecond, WCET: 15 * time.Millisecond,
			Sections: []Section{{Resource: "m2", Hold: 14 * time.Millisecond,
				Inner: []Section{{Resource: "m1", Hold: 2 * time.Millisecond}}}}},
	}}
	rep := mustAnalyze(t, cfg)
	fs := findByCode(t, rep, CodeLockOrderCycle)
	if len(fs) != 1 || fs[0].Severity != lint.Fatal {
		t.Fatalf("want one fatal lock-order cycle, got %v", rep.Findings)
	}
	if len(rep.Cycles) != 1 {
		t.Fatalf("want one recorded cycle, got %v", rep.Cycles)
	}
	if got := strings.Join(rep.Cycles[0], "->"); got != "m1->m2->m1" {
		t.Errorf("canonical cycle = %s, want m1->m2->m1", got)
	}
	if len(rep.Fatal()) == 0 {
		t.Error("Report.Fatal() must surface the cycle for the CLI gate")
	}

	// Simulate the flagged configuration: B (low) takes m2 first and m1
	// inside; A (high) releases mid-section and takes m1 then m2.
	k := sim.New()
	s := rtos.New(k)
	m1 := s.NewMutex("m1")
	m2 := s.NewMutex("m2")
	tb := s.Spawn("B", 1, 0, func(tk *rtos.Task) {
		tk.Lock(m2)
		tk.Compute(10 * time.Millisecond)
		tk.Lock(m1) // never granted
		t.Error("task B acquired m1; the deadlock did not occur")
	})
	ta := s.Spawn("A", 2, 5*time.Millisecond, func(tk *rtos.Task) {
		tk.Lock(m1)
		tk.Compute(2 * time.Millisecond)
		tk.Lock(m2) // never granted
		t.Error("task A acquired m2; the deadlock did not occur")
	})
	k.Run(50 * time.Millisecond)
	if ta.State() != rtos.TaskBlocked || tb.State() != rtos.TaskBlocked {
		t.Fatalf("want both tasks blocked, got A=%v B=%v", ta.State(), tb.State())
	}
	if ta.BlockedOn() != "m2" || ta.BlockedBy() != "B" {
		t.Errorf("A blocked on %q by %q, want m2 by B", ta.BlockedOn(), ta.BlockedBy())
	}
	if tb.BlockedOn() != "m1" || tb.BlockedBy() != "A" {
		t.Errorf("B blocked on %q by %q, want m1 by A", tb.BlockedOn(), tb.BlockedBy())
	}
	s.Shutdown()
}

// TestConsistentOrderNoCycle: nesting the same two mutexes in the same
// order from two tasks is deadlock-free and must not be flagged.
func TestConsistentOrderNoCycle(t *testing.T) {
	cfg := Config{Tasks: []TaskSpec{
		{Name: "A", Prio: 2, Period: 100 * time.Millisecond, WCET: 5 * time.Millisecond,
			Sections: []Section{{Resource: "m1", Hold: 4 * time.Millisecond,
				Inner: []Section{{Resource: "m2", Hold: 2 * time.Millisecond}}}}},
		{Name: "B", Prio: 1, Period: 100 * time.Millisecond, WCET: 5 * time.Millisecond,
			Sections: []Section{{Resource: "m1", Hold: 4 * time.Millisecond,
				Inner: []Section{{Resource: "m2", Hold: 2 * time.Millisecond}}}}},
	}}
	rep := mustAnalyze(t, cfg)
	if n := len(findByCode(t, rep, CodeLockOrderCycle)); n != 0 {
		t.Errorf("consistent order: want no cycle findings, got %d", n)
	}
}

// TestCycleDetectorMatchesBruteForce property-tests the DFS cycle
// detector against transitive-closure reachability on seeded random
// lock-order graphs. Each random edge (u, v) becomes one task that
// nests v inside u, so the analysis sees exactly the generated graph.
func TestCycleDetectorMatchesBruteForce(t *testing.T) {
	names := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(len(names)-3)
		edges := 1 + rng.Intn(2*n)
		cfg := Config{}
		var ledges []LockEdge
		for e := 0; e < edges; e++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				v = (v + 1) % n // self-edges would be self-deadlock, not a cycle
			}
			name := string(rune('a'+e)) + "task"
			cfg.Tasks = append(cfg.Tasks, TaskSpec{
				Name: name, Prio: 1, Period: time.Second, WCET: time.Millisecond,
				Sections: []Section{{Resource: names[u], Hold: 2 * time.Millisecond,
					Inner: []Section{{Resource: names[v], Hold: time.Millisecond}}}},
			})
			ledges = append(ledges, LockEdge{From: names[u], To: names[v], Task: name})
		}
		rep := mustAnalyze(t, cfg)
		gotCycle := len(findByCode(t, rep, CodeLockOrderCycle)) > 0
		wantCycle := CycleReachable(ledges)
		if gotCycle != wantCycle {
			t.Errorf("seed %d: detector says cycle=%v, brute force says %v (edges %v)",
				seed, gotCycle, wantCycle, ledges)
		}
		if gotCycle != (len(rep.Cycles) > 0) {
			t.Errorf("seed %d: findings and Cycles disagree", seed)
		}
	}
}

// TestMeasuredFromTrace runs a priority-inheritance contention scenario
// on the simulator and checks the measured extraction: per-release
// blocking, response times, and the static bound dominating both.
func TestMeasuredFromTrace(t *testing.T) {
	k := sim.New()
	s := rtos.New(k)
	tr := s.Record()
	m := s.NewMutex("m")
	// L takes the lock at t=0 and computes 5 ms inside; H releases at
	// t=1ms and contends: blocked 1ms -> 5ms (inheritance keeps L
	// running), so H measures 4 ms of blocking.
	s.Spawn("L", 1, 0, func(tk *rtos.Task) {
		tk.Lock(m)
		tk.Compute(5 * time.Millisecond)
		tk.Unlock(m)
	})
	s.Spawn("H", 2, time.Millisecond, func(tk *rtos.Task) {
		tk.Lock(m)
		tk.Compute(time.Millisecond)
		tk.Unlock(m)
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

	// The static bound for the same configuration dominates the
	// measurement.
	rep := mustAnalyze(t, Config{Tasks: []TaskSpec{
		{Name: "H", Prio: 2, Period: 20 * time.Millisecond, WCET: time.Millisecond,
			Sections: []Section{{Resource: "m", Hold: time.Millisecond}}},
		{Name: "L", Prio: 1, Period: 20 * time.Millisecond, WCET: 5 * time.Millisecond,
			Sections: []Section{{Resource: "m", Hold: 5 * time.Millisecond}}},
	}})
	if rep.Blocking["H"] < blocking["H"] {
		t.Errorf("static B_H %v < measured %v", rep.Blocking["H"], blocking["H"])
	}
	for _, r := range rep.Tasks {
		if r.Task.Name == "H" && r.Response < resp["H"] {
			t.Errorf("static R_H %v < measured %v", r.Response, resp["H"])
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
}
