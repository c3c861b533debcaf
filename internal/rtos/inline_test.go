package rtos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"rmtest/internal/sim"
)

// inlineObservation is what a finished run shows of its schedule.
type inlineObservation struct {
	Trace       []TraceRecord
	Switches    uint64
	Preemptions uint64
	Tasks       []inlineTask
}

type inlineTask struct {
	Name             string
	CPUUsed, CPUTime sim.Time
	State            TaskState
}

func observeSchedule(s *Scheduler) inlineObservation {
	o := inlineObservation{Trace: s.Record().Records(), Switches: s.ContextSwitches(), Preemptions: s.Preemptions()}
	for _, tk := range s.Tasks() {
		o.Tasks = append(o.Tasks, inlineTask{tk.Name(), tk.CPUUsed(), tk.CPUTime(), tk.State()})
	}
	return o
}

// compareInline builds the same system twice with setup, drives one with
// RunUntilIdle, which fires one event per burst, and the other with Run
// to a horizon after the first's last event, which completes bursts
// inline, and requires the same schedule. It reports whether a body's
// Stop ended the runs, and the kernel events inline completion saved.
func compareInline(t *testing.T, label string, setup func(k *sim.Kernel, s *Scheduler)) (stopped bool, saved uint64) {
	t.Helper()
	build := func() (*sim.Kernel, *Scheduler) {
		k := sim.New()
		s := New(k)
		s.Record()
		setup(k, s)
		return k, s
	}
	kr, ref := build()
	ki, inl := build()
	kr.RunUntilIdle()
	horizon := kr.Now() + time.Millisecond
	ki.Run(horizon)
	want, got := observeSchedule(ref), observeSchedule(inl)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: inline bursts changed the schedule\nRun:          %+v\nRunUntilIdle: %+v", label, got, want)
	}
	// Run ends before its horizon only when a body's Stop ended it, and
	// RunUntilIdle must then have stopped at the same instant.
	stopped = ki.Now() < horizon
	if stopped && kr.Now() != ki.Now() {
		t.Fatalf("%s: stopped at %v with RunUntilIdle, at %v with Run", label, kr.Now(), ki.Now())
	}
	if ki.EventsFired() > kr.EventsFired() {
		t.Fatalf("%s: Run fired %d kernel events, RunUntilIdle %d", label, ki.EventsFired(), kr.EventsFired())
	}
	return stopped, kr.EventsFired() - ki.EventsFired()
}

// randomTaskSet spawns 1–5 one-shot tasks at four priorities, each with
// a body of up to eight Compute calls, and adds interrupts, an overrun
// window or an ISR storm on some seeds. Instants and durations lie on a
// 250µs grid, so releases and interrupts often fall exactly on a burst's
// end. On a quarter of the seeds a body calls Stop once the tasks have
// completed a drawn number of bursts. No task is periodic, so
// RunUntilIdle ends.
func randomTaskSet(seed uint64, k *sim.Kernel, s *Scheduler) {
	const us = time.Microsecond
	r := sim.NewRand(seed)
	grid := func(n int) sim.Time { return sim.Time(r.Intn(n)) * 250 * us }
	stopAfter := -1
	if r.Bool(0.25) {
		stopAfter = 1 + r.Intn(10)
	}
	bursts := 0
	for i := range 1 + r.Intn(5) {
		ds := make([]sim.Time, 1+r.Intn(8))
		for j := range ds {
			ds[j] = grid(16)
		}
		tk := s.Spawn(fmt.Sprintf("t%d", i), r.Intn(4), grid(40), func(tk *Task) {
			for _, d := range ds {
				tk.Compute(d)
				if bursts++; bursts == stopAfter {
					k.Stop()
				}
			}
		})
		if r.Bool(0.2) {
			tk.InjectOverrun(grid(40), grid(80), int64(1+r.Intn(4)), int64(1+r.Intn(3)))
		}
	}
	for range r.Intn(5) {
		cost := grid(8)
		k.At(grid(80), func() { s.Interrupt(cost) })
	}
	if r.Bool(0.15) {
		s.InjectISRStorm(grid(40), grid(40), 250*us+grid(8), grid(4))
	}
}

// TestInlineBurstsMatchEventPerBurst: completing uninterruptible bursts
// inline (Run) schedules exactly as firing one event per burst
// (RunUntilIdle) on 3,000 random task sets, and fires fewer events.
func TestInlineBurstsMatchEventPerBurst(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	var saved, savedStopped uint64
	stops := 0
	for seed := range uint64(seeds) {
		stopped, n := compareInline(t, fmt.Sprintf("seed %d", seed), func(k *sim.Kernel, s *Scheduler) {
			randomTaskSet(seed, k, s)
		})
		saved += n
		if stopped {
			stops++
			savedStopped += n
		}
	}
	t.Logf("inline completion saved %d kernel events over %d task sets (%d on the %d stopped early)", saved, seeds, savedStopped, stops)
	if saved == 0 || stops == 0 || savedStopped == 0 {
		t.Fatalf("inline completion saved %d events overall and %d on %d runs a body's Stop ended: the check is vacuous", saved, savedStopped, stops)
	}
}

// FuzzInlineBursts is TestInlineBurstsMatchEventPerBurst's check on
// fuzzed seeds: Run, which completes an uninterruptible burst inside the
// task body, schedules exactly as RunUntilIdle, which never does.
func FuzzInlineBursts(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) {
		compareInline(t, fmt.Sprintf("seed %d", seed), func(k *sim.Kernel, s *Scheduler) {
			randomTaskSet(seed, k, s)
		})
	})
}

// TestInlineBurstTies: an event at exactly a burst's end fires before the
// burst completes, as it does when the burst's end is an event, so the
// burst is not completed inline; Run and RunUntilIdle schedule alike.
func TestInlineBurstTies(t *testing.T) {
	cases := []struct {
		name  string
		setup func(k *sim.Kernel, s *Scheduler, done *sim.Time)
		want  sim.Time // when lo's burst completes
	}{
		{
			name: "release at the burst's end",
			setup: func(k *sim.Kernel, s *Scheduler, done *sim.Time) {
				s.Spawn("lo", 1, 0, func(tk *Task) { tk.Compute(10 * ms); *done = tk.Now() })
				s.Spawn("hi", 2, 10*ms, func(tk *Task) { tk.Compute(3 * ms) })
			},
			want: 13 * ms, // hi is ready when lo's burst ends, and runs first
		},
		{
			name: "wake-up at the burst's end",
			setup: func(k *sim.Kernel, s *Scheduler, done *sim.Time) {
				// hi's first release does nothing, and it sleeps until its
				// second, which stops the run so that RunUntilIdle ends.
				s.SpawnPeriodic("hi", 2, 0, 10*ms, func(tk *Task) {
					if tk.Releases() == 2 {
						tk.Compute(3 * ms)
						k.Stop()
					}
				})
				s.Spawn("lo", 1, 0, func(tk *Task) { tk.Compute(10 * ms); *done = tk.Now() })
			},
			want: 13 * ms,
		},
		{
			name: "ISR at the burst's end",
			setup: func(k *sim.Kernel, s *Scheduler, done *sim.Time) {
				s.Spawn("lo", 1, 0, func(tk *Task) { tk.Compute(10 * ms); *done = tk.Now() })
				k.At(10*ms, func() { s.Interrupt(2 * ms) })
			},
			want: 12 * ms, // the ISR steals 2ms before the burst can end
		},
		{
			name: "ISR just after the burst's end",
			setup: func(k *sim.Kernel, s *Scheduler, done *sim.Time) {
				s.Spawn("lo", 1, 0, func(tk *Task) { tk.Compute(10 * ms); *done = tk.Now() })
				k.At(10*ms+1, func() { s.Interrupt(2 * ms) })
			},
			want: 10 * ms,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var dones [2]sim.Time
			side := 0
			compareInline(t, tc.name, func(k *sim.Kernel, s *Scheduler) {
				tc.setup(k, s, &dones[side])
				side++
			})
			if dones[0] != tc.want || dones[1] != tc.want {
				t.Fatalf("lo's burst completed at %v with RunUntilIdle and %v with Run, want %v", dones[0], dones[1], tc.want)
			}
		})
	}
}

// TestRunCompletesUninterruptibleBurstsInline: a burst nothing can
// interrupt completes with no kernel event, and the body goes on at its
// end: it runs its three bursts and exits in one scheduling pass.
func TestRunCompletesUninterruptibleBurstsInline(t *testing.T) {
	k, s := rig(t)
	var stamps []sim.Time
	s.Spawn("a", 1, 0, func(tk *Task) {
		for range 3 {
			tk.Compute(5 * ms)
			stamps = append(stamps, tk.Now())
		}
	})
	k.Run(time.Second)
	if !reflect.DeepEqual(stamps, []sim.Time{5 * ms, 10 * ms, 15 * ms}) {
		t.Fatalf("bursts completed at %v, want 5, 10 and 15ms", stamps)
	}
	if k.EventsFired() != 2 || s.ComputeRequests() != 3 {
		t.Fatalf("fired %d events for %d Compute calls, want 2 (the release and its scheduling pass) for 3", k.EventsFired(), s.ComputeRequests())
	}
}

// TestInlineBurstStopsAtHorizon: a burst that ends past Run's horizon is
// not completed inline; Run stops at its horizon partway through it.
func TestInlineBurstStopsAtHorizon(t *testing.T) {
	k, s := rig(t)
	tk := s.Spawn("a", 1, 0, func(tk *Task) { tk.Compute(10 * ms) })
	k.Run(4 * ms)
	if k.Now() != 4*ms || tk.CPUUsed() != 4*ms || k.Pending() != 1 || tk.State() != TaskRunning {
		t.Fatalf("at %v: task %v with %v of CPU used, %d events pending; want 4ms, running, 4ms and the burst's end",
			k.Now(), tk.State(), tk.CPUUsed(), k.Pending())
	}
}
