package rtos

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"rmtest/internal/sim"
)

const randomSchedulesGolden = "testdata/random_schedules.txt"

// randomScheduleLine builds seed's task set, runs it to a drawn horizon
// and summarises the run as one line. A set has 1–6 tasks at four
// priorities, each periodic or one-shot, with a body of 0–5 bursts on a
// 250µs grid; some tasks get an overrun window, and some sets get
// interrupts at drawn instants or an ISR storm. On a quarter of the
// seeds a body calls Stop after a drawn number of bursts.
func randomScheduleLine(seed uint64) string {
	const us = time.Microsecond
	r := sim.NewRand(seed)
	k := sim.New()
	s := New(k)
	tr := s.Record()
	grid := func(n int) sim.Time { return sim.Time(r.Intn(n)) * 250 * us }
	stopAfter := -1
	if r.Bool(0.25) {
		stopAfter = 1 + r.Intn(12)
	}
	bursts := 0
	for i := range 1 + r.Intn(6) {
		ds := make([]sim.Time, r.Intn(6))
		for j := range ds {
			ds[j] = grid(16)
		}
		body := func(tk *Task) {
			for _, d := range ds {
				tk.Compute(d)
				if bursts++; bursts == stopAfter {
					k.Stop()
				}
			}
		}
		name, prio, start := fmt.Sprintf("t%d", i), r.Intn(4), grid(40)
		var tk *Task
		if r.Bool(0.5) {
			tk = s.SpawnPeriodic(name, prio, start, 250*us*sim.Time(1+r.Intn(60)), body)
		} else {
			tk = s.Spawn(name, prio, start, body)
		}
		if r.Bool(0.2) {
			tk.InjectOverrun(grid(40), grid(80), int64(1+r.Intn(4)), int64(1+r.Intn(3)))
		}
	}
	for range r.Intn(5) {
		at, cost := grid(160), grid(8)
		if r.Bool(0.5) {
			at = sim.Time(r.Intn(40_000)) * us // off the grid
		}
		k.At(at, func() { s.Interrupt(cost) })
	}
	if r.Bool(0.15) {
		s.InjectISRStorm(grid(40), grid(40), 250*us+grid(8), grid(4))
	}
	k.Run(grid(240))

	var b strings.Builder
	b.WriteString(tr.String())
	for _, tk := range s.Tasks() {
		fmt.Fprintf(&b, "%s %v cpu=%d used=%d releases=%d missed=%d\n", tk.Name(), tk.State(),
			tk.CPUTime(), tk.CPUUsed(), tk.Releases(), tk.MissedReleases())
	}
	return fmt.Sprintf("seed=%d now=%d events=%d switches=%d preempts=%d computes=%d idle=%d sha256=%x",
		seed, k.Now(), k.EventsFired(), s.ContextSwitches(), s.Preemptions(), s.ComputeRequests(),
		s.IdleTime(), sha256.Sum256([]byte(b.String())))
}

// TestRandomSchedulesGolden pins what 2,000 random task sets show after
// a run: the final instant, the events fired, the switches, preemptions
// and Compute calls, the idle time, and a digest of the scheduler trace
// and of every task's state, CPU time, CPU used, releases and missed
// releases. UPDATE_GOLDEN=1 re-records testdata/random_schedules.txt;
// do that only for a change meant to alter schedules, and say why.
func TestRandomSchedulesGolden(t *testing.T) {
	var b bytes.Buffer
	for seed := range uint64(2000) {
		fmt.Fprintln(&b, randomScheduleLine(seed))
	}
	got := b.Bytes()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(randomSchedulesGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(randomSchedulesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	diff, first := 0, -1
	for i := range max(len(gl), len(wl)) {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			if diff++; first < 0 {
				first = i
			}
		}
	}
	g, w := "", ""
	if first < len(gl) {
		g = gl[first]
	}
	if first < len(wl) {
		w = wl[first]
	}
	t.Fatalf("%d of %d task sets differ from %s; first:\ngot:  %s\nwant: %s", diff, len(wl)-1, randomSchedulesGolden, g, w)
}
