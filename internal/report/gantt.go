package report

import (
	"fmt"
	"sort"
	"strings"

	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

// TaskLoads renders per-task CPU consumption of a finished run: the CPU
// time each task has run (so the figures sum to the busy time), its share
// of elapsed virtual time, and periodic release accounting. It is the
// quick answer to "who ate the CPU" when a Gantt window is too narrow.
func TaskLoads(s *rtos.Scheduler) string {
	elapsed := s.Kernel().Now()
	var b strings.Builder
	fmt.Fprintf(&b, "task loads over %v (CPU %.1f%% busy, %d switches, %d preemptions)\n",
		elapsed, 100*s.Utilization(), s.ContextSwitches(), s.Preemptions())
	tasks := s.TasksByName()
	for _, t := range tasks {
		used := t.CPUUsed()
		share := 0.0
		if elapsed > 0 {
			share = 100 * float64(used) / float64(elapsed)
		}
		fmt.Fprintf(&b, "  %-14s prio=%d cpu=%-12v (%5.1f%%)", t.Name(), t.Priority(), used, share)
		if t.Period() > 0 {
			fmt.Fprintf(&b, " releases=%d missed=%d", t.Releases(), t.MissedReleases())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Gantt renders a scheduler trace as an ASCII Gantt chart: one lane per
// task, '#' while the task holds the CPU, '.' while it is ready but
// waiting, and spaces otherwise. It makes preemption and starvation
// visible at a glance — the scheduling story behind the delay segments.
func Gantt(tr *rtos.Trace, from, to sim.Time, width int) string {
	if width < 20 {
		width = 80
	}
	if to <= from {
		return "(empty window)\n"
	}
	recs := tr.Records()
	// Collect task names in first-appearance order.
	var names []string
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Task == "" || seen[r.Task] {
			continue
		}
		seen[r.Task] = true
		names = append(names, r.Task)
	}
	sort.Strings(names)

	type span struct {
		state byte // '#' running, '.' ready
		from  sim.Time
	}
	lanes := make(map[string][]byte, len(names))
	for _, n := range names {
		lanes[n] = []byte(strings.Repeat(" ", width))
	}
	col := func(t sim.Time) int {
		if t < from {
			return 0
		}
		c := int(int64(t-from) * int64(width) / int64(to-from))
		if c >= width {
			c = width - 1
		}
		return c
	}
	fill := func(name string, a, b sim.Time, ch byte) {
		if b < from || a > to {
			return
		}
		lane := lanes[name]
		for c := col(a); c <= col(b); c++ {
			// Running marks win over ready marks.
			if ch == '#' || lane[c] == ' ' {
				lane[c] = ch
			}
		}
	}
	cur := make(map[string]span)
	for _, r := range recs {
		switch r.Kind {
		case rtos.TraceDispatch:
			if s, ok := cur[r.Task]; ok {
				fill(r.Task, s.from, r.At, s.state)
			}
			cur[r.Task] = span{state: '#', from: r.At}
		case rtos.TraceReady:
			if s, ok := cur[r.Task]; ok {
				fill(r.Task, s.from, r.At, s.state)
			}
			cur[r.Task] = span{state: '.', from: r.At}
		case rtos.TracePreempt:
			if s, ok := cur[r.Task]; ok {
				fill(r.Task, s.from, r.At, s.state)
			}
			cur[r.Task] = span{state: '.', from: r.At}
		case rtos.TraceSleep, rtos.TraceExit:
			if s, ok := cur[r.Task]; ok {
				fill(r.Task, s.from, r.At, s.state)
				delete(cur, r.Task)
			}
		}
	}
	for name, s := range cur {
		fill(name, s.from, to, s.state)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "CPU Gantt %v .. %v (one column = %v; '#'=running, '.'=ready)\n",
		from, to, (to-from)/sim.Time(width))
	maxName := 0
	for _, n := range names {
		if len(n) > maxName {
			maxName = len(n)
		}
	}
	for _, n := range names {
		fmt.Fprintf(&b, "%-*s |%s|\n", maxName, n, lanes[n])
	}
	return b.String()
}
