// Package rta implements classical response-time analysis for fixed-
// priority preemptive scheduling (Joseph & Pandya / Audsley's
// recurrence):
//
//	R_i = C_i + B_i + sum_{j in hp(i)} (floor((R_i + J_j) / T_j) + 1) * C_j
//
// The textbook form counts ceil((R_i + J_j) / T_j) higher-priority
// releases, which leaves out one released at exactly R_i. The simulated
// scheduler lets such a release preempt the task before the code that
// follows its last burst, so the window here is closed at both ends.
//
// It complements the testing framework with the analytic side of the
// timing story: given the platform's task set, RTA predicts worst-case
// task response times and a worst-case end-to-end latency bound for a
// sensing -> CODE(M) -> actuation pipeline. The simulator must never
// exceed these bounds (a property the test suite checks), and R-testing
// verdicts can be anticipated by comparing the bound with the
// requirement: scheme 2's "periods sum below 100 ms" design rule is
// exactly such a bound argument.
package rta

import (
	"fmt"
	"sort"

	"rmtest/internal/sim"
)

// Task describes one periodic task for analysis.
type Task struct {
	Name string
	// Prio follows the RTOS convention: larger runs first.
	Prio int
	// Period is the release period.
	Period sim.Time
	// WCET is the worst-case execution time per release.
	WCET sim.Time
	// Jitter is release jitter (time from the nominal release until the
	// task is actually ready), added to interference windows.
	Jitter sim.Time
	// Blocking is the worst-case time per release the task spends
	// blocked (the B_i term of the recurrence), for example waiting on a
	// queue for a lower-priority sender. It is a caller's input: no task
	// in the simulated RTOS can wait, so the platform static analyzer
	// (internal/schedlint) leaves it zero. FIFO blocking by
	// equal-priority peers is charged separately.
	Blocking sim.Time
}

// Result is the analysis outcome for one task.
type Result struct {
	Task Task
	// Response is the worst-case response time (from nominal release to
	// completion), including jitter.
	Response sim.Time
	// Utilisation is WCET/Period.
	Utilisation float64
	// Schedulable reports whether the recurrence converged within the
	// task's period (deadline = period assumption).
	Schedulable bool
}

// Analyze computes worst-case response times for a fixed-priority task
// set. Equal-priority tasks are handled conservatively: each counts as
// interference for the other (FIFO between equal priorities means a
// release can wait for every equal-priority peer's full WCET).
func Analyze(tasks []Task) ([]Result, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("rta: empty task set")
	}
	for _, t := range tasks {
		if t.Period <= 0 || t.WCET <= 0 {
			return nil, fmt.Errorf("rta: task %q needs positive period and WCET", t.Name)
		}
		if t.WCET > t.Period {
			return nil, fmt.Errorf("rta: task %q WCET %v exceeds its period %v", t.Name, t.WCET, t.Period)
		}
		if t.Blocking < 0 {
			return nil, fmt.Errorf("rta: task %q has negative blocking %v", t.Name, t.Blocking)
		}
		if t.Jitter < 0 {
			return nil, fmt.Errorf("rta: task %q has negative jitter %v", t.Name, t.Jitter)
		}
	}
	out := make([]Result, 0, len(tasks))
	for i, t := range tasks {
		res := Result{Task: t, Utilisation: float64(t.WCET) / float64(t.Period)}
		// Interference set: strictly higher priorities periodically, plus
		// one WCET of each equal-priority peer (FIFO blocking), plus the
		// task's declared resource-blocking term B_i.
		blocking := t.Blocking
		var hp []Task
		for j, o := range tasks {
			if i == j {
				continue
			}
			if o.Prio > t.Prio {
				hp = append(hp, o)
			} else if o.Prio == t.Prio {
				blocking += o.WCET
			}
		}
		r := t.WCET + blocking
		limit := 1000
		for ; limit > 0; limit-- {
			next := t.WCET + blocking
			for _, h := range hp {
				next += sim.Time(releases(r+h.Jitter, h.Period)) * h.WCET
			}
			if next == r {
				break
			}
			r = next
			if r > 1000*t.Period {
				break // diverging: hopeless overload
			}
		}
		res.Response = r + t.Jitter
		res.Schedulable = limit > 0 && res.Response <= t.Period
		out = append(out, res)
	}
	return out, nil
}

// releases counts the releases of a task with the given period that
// fall in the closed window [0, w]; the package comment says why the
// window's last instant counts.
func releases(w, period sim.Time) int64 {
	return int64(w/period) + 1
}

// Utilisation returns the task set's total CPU utilisation.
func Utilisation(tasks []Task) float64 {
	var u float64
	for _, t := range tasks {
		u += float64(t.WCET) / float64(t.Period)
	}
	return u
}

// Stage is one hop of a periodic sampling pipeline: data produced
// elsewhere is picked up by this periodic task at its next release and
// handed on after its response time.
type Stage struct {
	Name string
	// Period is the stage's sampling/release period: worst-case wait for
	// pickup is one full period.
	Period sim.Time
	// Response is the stage's worst-case response time (from Analyze).
	Response sim.Time
	// ExtraLatency is fixed device latency charged after the stage
	// (sensor latch delay before the first stage, actuation latency after
	// the last).
	ExtraLatency sim.Time
}

// PipelineBound returns the worst-case end-to-end latency of an
// asynchronous periodic pipeline: for each stage, a full period of
// pickup wait plus the stage's response time plus its device latency.
// This is the analytic counterpart of scheme 2's design rule.
func PipelineBound(stages []Stage) sim.Time {
	var sum sim.Time
	for _, s := range stages {
		sum += s.Period + s.Response + s.ExtraLatency
	}
	return sum
}

// String renders results sorted by priority (highest first).
func String(results []Result) string {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Task.Prio > sorted[j].Task.Prio })
	out := ""
	for _, r := range sorted {
		ok := "schedulable"
		if !r.Schedulable {
			ok = "NOT schedulable"
		}
		b := ""
		if r.Task.Blocking > 0 {
			b = fmt.Sprintf(" B=%v", r.Task.Blocking)
		}
		out += fmt.Sprintf("%-14s prio=%d T=%v C=%v%s -> R=%v (%s, u=%.2f)\n",
			r.Task.Name, r.Task.Prio, r.Task.Period, r.Task.WCET, b, r.Response, ok, r.Utilisation)
	}
	return out
}
