package rtos

import (
	"strings"
	"testing"
	"time"

	"rmtest/internal/sim"
)

const ms = time.Millisecond

// rig creates a kernel+scheduler pair.
func rig(t *testing.T) (*sim.Kernel, *Scheduler) {
	t.Helper()
	k := sim.New()
	return k, New(k)
}

func TestSingleTaskComputes(t *testing.T) {
	k, s := rig(t)
	var done sim.Time
	s.Spawn("a", 1, 0, func(tk *Task) {
		tk.Compute(10 * ms)
		done = tk.Now()
	})
	k.Run(time.Second)
	if done != 10*ms {
		t.Fatalf("compute finished at %v, want 10ms", done)
	}
}

func TestComputeSequenceAccumulates(t *testing.T) {
	k, s := rig(t)
	var stamps []sim.Time
	s.Spawn("a", 1, 0, func(tk *Task) {
		for i := 0; i < 3; i++ {
			tk.Compute(5 * ms)
			stamps = append(stamps, tk.Now())
		}
	})
	k.Run(time.Second)
	want := []sim.Time{5 * ms, 10 * ms, 15 * ms}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps=%v want %v", stamps, want)
		}
	}
}

func TestHigherPriorityPreempts(t *testing.T) {
	k, s := rig(t)
	var loFinish, hiFinish sim.Time
	s.Spawn("lo", 1, 0, func(tk *Task) {
		tk.Compute(100 * ms)
		loFinish = tk.Now()
	})
	s.Spawn("hi", 5, 30*ms, func(tk *Task) {
		tk.Compute(20 * ms)
		hiFinish = tk.Now()
	})
	k.Run(time.Second)
	if hiFinish != 50*ms {
		t.Fatalf("hi finished at %v, want 50ms (preempting lo at 30ms)", hiFinish)
	}
	if loFinish != 120*ms {
		t.Fatalf("lo finished at %v, want 120ms (100ms work + 20ms preempted)", loFinish)
	}
	if s.Preemptions() != 1 {
		t.Fatalf("preemptions=%d want 1", s.Preemptions())
	}
}

func TestEqualPriorityNoPreemptionWithoutSlicing(t *testing.T) {
	k, s := rig(t)
	var order []string
	s.Spawn("a", 1, 0, func(tk *Task) {
		tk.Compute(50 * ms)
		order = append(order, "a")
	})
	s.Spawn("b", 1, 0, func(tk *Task) {
		tk.Compute(10 * ms)
		order = append(order, "b")
	})
	k.Run(time.Second)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order=%v, want a then b (FIFO)", order)
	}
}

// TestSleepWakesAtExactInstant: a periodic task sleeps after each
// release and wakes at exactly its next release instant.
func TestSleepWakesAtExactInstant(t *testing.T) {
	k, s := rig(t)
	var woke []sim.Time
	tk := s.SpawnPeriodic("a", 1, 0, 42*ms, func(tk *Task) {
		woke = append(woke, tk.Now())
		tk.Compute(ms)
	})
	k.Run(50 * ms)
	if len(woke) != 2 || woke[1] != 42*ms || tk.State() != TaskSleeping {
		t.Fatalf("released at %v, now %v; want 0 and 42ms, then sleeping", woke, tk.State())
	}
}

func TestSpawnPeriodicReleases(t *testing.T) {
	k, s := rig(t)
	var releases []sim.Time
	s.SpawnPeriodic("p", 1, 5*ms, 25*ms, func(tk *Task) {
		releases = append(releases, tk.Now())
		tk.Compute(ms)
	})
	k.Run(106 * ms)
	want := []sim.Time{5 * ms, 30 * ms, 55 * ms, 80 * ms, 105 * ms}
	if len(releases) != len(want) {
		t.Fatalf("releases=%v", releases)
	}
	for i := range want {
		if releases[i] != want[i] {
			t.Fatalf("release %d at %v want %v", i, releases[i], want[i])
		}
	}
}

func TestPeriodicOverrunSkipsMissedReleases(t *testing.T) {
	k, s := rig(t)
	var releases []sim.Time
	first := true
	s.SpawnPeriodic("p", 1, 0, 10*ms, func(tk *Task) {
		releases = append(releases, tk.Now())
		if first {
			first = false
			tk.Compute(35 * ms) // overruns three periods
		}
	})
	k.Run(60 * ms)
	// Release 0 at 0 runs until 35ms; the next release in the future is 40ms.
	if len(releases) < 2 || releases[1] != 40*ms {
		t.Fatalf("releases=%v, want second release at 40ms", releases)
	}
}

func TestInterruptStealsCPU(t *testing.T) {
	k, s := rig(t)
	var done sim.Time
	s.Spawn("a", 1, 0, func(tk *Task) {
		tk.Compute(20 * ms)
		done = tk.Now()
	})
	k.At(5*ms, func() { s.Interrupt(3 * ms) })
	k.Run(time.Second)
	if done != 23*ms {
		t.Fatalf("done at %v, want 23ms (20 compute + 3 ISR)", done)
	}
}

func TestTaskStatesProgress(t *testing.T) {
	k, s := rig(t)
	tk := s.Spawn("a", 1, 10*ms, func(tk *Task) {
		tk.Compute(5 * ms)
	})
	if tk.State() != TaskNew {
		t.Fatalf("state before release: %v", tk.State())
	}
	k.Run(time.Second)
	if tk.State() != TaskDone {
		t.Fatalf("state after run: %v", tk.State())
	}
	if tk.CPUTime() != 5*ms {
		t.Fatalf("cpu time %v", tk.CPUTime())
	}
}

func TestIdleTimeAccounting(t *testing.T) {
	k, s := rig(t)
	s.Spawn("a", 1, 10*ms, func(tk *Task) { tk.Compute(20 * ms) })
	k.Run(100 * ms)
	// Idle 0-10 and 30-100: 80ms.
	if got := s.IdleTime(); got != 80*ms {
		t.Fatalf("idle=%v want 80ms", got)
	}
	u := s.Utilization()
	if u < 0.19 || u > 0.21 {
		t.Fatalf("utilization=%v want 0.2", u)
	}
}

func TestTraceRecordsDispatches(t *testing.T) {
	k, s := rig(t)
	tr := s.Record()
	s.Spawn("a", 1, 0, func(tk *Task) { tk.Compute(ms) })
	k.Run(time.Second)
	disp := tr.Filter(TraceDispatch)
	if len(disp) != 1 || disp[0].Task != "a" {
		t.Fatalf("dispatch trace: %+v", disp)
	}
	if s.Record() != tr {
		t.Fatal("a second Record must return the trace being recorded")
	}
}

// TestTraceRecordedOnDemand: a scheduler records nothing until Record,
// and from then on keeps every record, however long the run.
func TestTraceRecordedOnDemand(t *testing.T) {
	k, s := rig(t)
	s.SpawnPeriodic("p", 1, 0, ms, func(tk *Task) {})
	k.Run(10 * ms)
	if s.trace != nil {
		t.Fatal("scheduler recorded before Record")
	}
	tr := s.Record()
	k.Run(5 * time.Second)
	recs := tr.Records()
	// Every release from 11ms to 5s inclusive records ready, dispatch
	// and sleep.
	if want := 3 * (5000 - 10); len(recs) != want {
		t.Fatalf("recorded %d records, want %d", len(recs), want)
	}
	if recs[0].At != 11*ms {
		t.Fatalf("first record at %v, want 11ms", recs[0].At)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatal("trace out of order")
		}
	}
}

// TestBodyPanicReachesRunCaller pins where a task-body panic goes: it
// comes back out of Kernel.Run on the caller's goroutine with its value
// intact, from a release nested inside another's Compute too.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	k := sim.New()
	s := New(k)
	s.SpawnPeriodic("peer", 3, 0, 5*ms, func(tk *Task) { tk.Compute(ms) })
	s.Spawn("lo", 1, 0, func(tk *Task) { tk.Compute(time.Hour) })
	// faulty preempts lo at 2ms, so its release runs inside lo's Compute.
	s.Spawn("faulty", 2, 2*ms, func(tk *Task) {
		tk.Compute(ms)
		panic("faulty body")
	})
	got := func() (p any) {
		defer func() { p = recover() }()
		k.Run(time.Second)
		return nil
	}()
	if got != "faulty body" {
		t.Fatalf("Run panicked with %v, want the body's panic value", got)
	}
	if s.Preemptions() != 1 || k.Now() != 3*ms {
		t.Fatalf("%d preemptions, panic at %v; want faulty to preempt lo and panic at 3ms", s.Preemptions(), k.Now())
	}
}

// TestNestedReleasesFinishFirst: a release that preempts a task runs
// inside the preempted task's Compute and finishes before it goes on,
// three levels deep.
func TestNestedReleasesFinishFirst(t *testing.T) {
	k, s := rig(t)
	var order []string
	mark := func(tk *Task, what string) { order = append(order, tk.Name()+what+"@"+tk.Now().String()) }
	body := func(d sim.Time) func(*Task) {
		return func(tk *Task) { mark(tk, "+"); tk.Compute(d); mark(tk, "-") }
	}
	s.Spawn("lo", 1, 0, body(10*ms))
	s.Spawn("mid", 2, 2*ms, body(4*ms))
	s.Spawn("hi", 3, 3*ms, body(ms))
	k.Run(time.Second)
	want := "lo+@0s mid+@2ms hi+@3ms hi-@4ms mid-@7ms lo-@15ms"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
}

// TestRunAfterRunEndedInReleasePanics: a run that ends inside a release
// abandons it, and a later Run panics, naming the task, when that task
// would go on.
func TestRunAfterRunEndedInReleasePanics(t *testing.T) {
	k, s := rig(t)
	s.Spawn("a", 1, 0, func(tk *Task) { tk.Compute(10 * ms) })
	k.Run(4 * ms)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "task a ") {
			t.Fatalf("resumed Run panicked with %v, want a panic naming task a", r)
		}
		if k.Now() != 10*ms {
			t.Fatalf("panicked at %v, want 10ms, when a's burst ends", k.Now())
		}
	}()
	k.Run(20 * ms)
}

// TestComputeOutsideRunPanics: a burst that must wait under Step, which
// fires one event and is no run, panics.
func TestComputeOutsideRunPanics(t *testing.T) {
	k, s := rig(t)
	s.Spawn("a", 1, 0, func(tk *Task) { tk.Compute(ms) })
	defer func() {
		if recover() == nil {
			t.Fatal("a Compute that must wait under Step did not panic")
		}
	}()
	for k.Step() {
	}
}

func TestManyTasksDeterministic(t *testing.T) {
	run := func() []string {
		k := sim.New()
		s := New(k)
		var order []string
		for i := 0; i < 8; i++ {
			name := string(rune('a' + i))
			prio := i % 3
			s.Spawn(name, prio, sim.Time(i)*ms, func(tk *Task) {
				tk.Compute(7 * ms)
				order = append(order, name)
				tk.Compute(2 * ms)
				order = append(order, name+"!")
			})
		}
		k.Run(time.Second)
		return order
	}
	a, b := run(), run()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("incomplete runs: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at %d: %v vs %v", i, a, b)
		}
	}
}

func TestReadySnapshotOrdering(t *testing.T) {
	k, s := rig(t)
	// Occupy the CPU with a high-priority task, then release three tasks.
	s.Spawn("hog", 10, 0, func(tk *Task) { tk.Compute(50 * ms) })
	s.Spawn("lo", 1, ms, func(tk *Task) {})
	s.Spawn("hi", 5, 2*ms, func(tk *Task) {})
	s.Spawn("mid", 3, 3*ms, func(tk *Task) {})
	k.Run(10 * ms)
	snap := s.ReadySnapshot()
	want := []string{"hi", "mid", "lo"}
	if len(snap) != 3 {
		t.Fatalf("snapshot=%v", snap)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("snapshot=%v want %v", snap, want)
		}
	}
}

func TestPeriodicReleaseAccounting(t *testing.T) {
	k, s := rig(t)
	tk := s.SpawnPeriodic("p", 1, 0, 10*ms, func(task *Task) {
		task.Compute(ms)
	})
	k.Run(95 * ms)
	if tk.Releases() != 10 {
		t.Fatalf("releases=%d", tk.Releases())
	}
	if tk.MissedReleases() != 0 {
		t.Fatalf("missed=%d", tk.MissedReleases())
	}
	if tk.Period() != 10*ms {
		t.Fatalf("period=%v", tk.Period())
	}
}

func TestPeriodicMissedReleasesUnderStarvation(t *testing.T) {
	k, s := rig(t)
	tk := s.SpawnPeriodic("victim", 1, 0, 10*ms, func(task *Task) {
		task.Compute(ms)
	})
	// A higher-priority hog takes the CPU for 45ms mid-run.
	s.Spawn("hog", 9, 5*ms, func(task *Task) { task.Compute(45 * ms) })
	k.Run(200 * ms)
	if tk.MissedReleases() == 0 {
		t.Fatal("starved periodic task should skip releases")
	}
}

func TestTraceKindStrings(t *testing.T) {
	kinds := []TraceKind{TraceReady, TraceDispatch, TracePreempt,
		TraceSleep, TraceExit, TraceISR}
	seen := map[string]bool{}
	for _, kind := range kinds {
		str := kind.String()
		if str == "" || seen[str] {
			t.Fatalf("bad kind string %q", str)
		}
		seen[str] = true
	}
	if TaskNew.String() != "new" || TaskDone.String() != "done" {
		t.Fatal("task state strings")
	}
}

func TestUtilizationUnderFullLoad(t *testing.T) {
	k, s := rig(t)
	s.Spawn("busy", 1, 0, func(tk *Task) {
		for {
			tk.Compute(10 * ms)
		}
	})
	k.Run(time.Second)
	if u := s.Utilization(); u < 0.999 {
		t.Fatalf("utilization=%v", u)
	}
}

// TestPriorityInvariantProperty replays the scheduler trace of random
// task sets and checks the fundamental fixed-priority invariant: every
// dispatched task has maximal priority among the tasks that were ready at
// that instant.
func TestPriorityInvariantProperty(t *testing.T) {
	run := func(seed uint64) bool {
		k := sim.New()
		s := New(k)
		tr := s.Record()
		r := sim.NewRand(seed)
		prios := map[string]int{}
		n := 3 + r.Intn(4)
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			prio := 1 + r.Intn(3)
			prios[name] = prio
			period := sim.Time(10+r.Intn(30)) * ms
			burst := sim.Time(1+r.Intn(8)) * ms
			if burst >= period {
				burst = period / 2
			}
			s.SpawnPeriodic(name, prio, sim.Time(r.Intn(10))*ms, period, func(tk *Task) {
				tk.Compute(burst)
			})
		}
		k.Run(500 * ms)
		ready := map[string]bool{}
		for _, rec := range tr.Records() {
			switch rec.Kind {
			case TraceReady:
				ready[rec.Task] = true
			case TraceDispatch:
				for other := range ready {
					if other != rec.Task && prios[other] > prios[rec.Task] {
						t.Logf("seed %d: dispatched %s (prio %d) while %s (prio %d) ready at %v",
							seed, rec.Task, prios[rec.Task], other, prios[other], rec.At)
						return false
					}
				}
				delete(ready, rec.Task)
			case TracePreempt:
				ready[rec.Task] = true
			case TraceSleep, TraceExit:
				delete(ready, rec.Task)
			}
		}
		return true
	}
	for seed := uint64(1); seed <= 30; seed++ {
		if !run(seed) {
			t.Fatalf("priority invariant violated for seed %d", seed)
		}
	}
}
