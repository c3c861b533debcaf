// Package schedlint is the platform layer of the static-analysis stack:
// where internal/lint checks the model and its generated bytecode, this
// package checks the declared platform configuration — fixed-priority
// periodic tasks connected by FIFO queues — before any simulation runs.
//
// From a Config describing each task's priority, period, WCET and queue
// traffic it
//
//  1. runs response-time analysis (internal/rta) over the task set,
//     charging each task one WCET of every equal-priority peer (FIFO
//     blocking), and flags tasks whose bound exceeds their period, and
//  2. derives queue-capacity sufficiency bounds from the producer and
//     consumer rates and response times.
//
// No task in the simulated RTOS can wait on a queue, so the analysis
// leaves every task's blocking term (rta.Task.Blocking) at zero.
// Everything is reported as lint.Finding values so the existing gate,
// renderers and CLI exit-status logic apply unchanged. The simulator
// cross-checks the analysis: measured response times and queue depths
// must never exceed the static bounds — the same dominance contract the
// WCET layer already maintains.
package schedlint

import (
	"fmt"
	"sort"
	"strings"

	"rmtest/internal/lint"
	"rmtest/internal/rta"
	"rmtest/internal/sim"
)

// Finding codes of the platform analysis. Like the lint codes, every one
// is triggered at least once by the test suite.
const (
	// CodeQueueCapacity: the worst-case backlog bound of a queue exceeds
	// its capacity (messages can be dropped), or the producer rate
	// exceeds the consumer rate outright.
	CodeQueueCapacity = "queue-capacity"
	// CodeUnschedulable: a task's blocking-inclusive response-time bound
	// exceeds its period.
	CodeUnschedulable = "blocking-unschedulable"
	// CodeUnknownResource: a task references a queue that is not
	// declared in Config.Queues.
	CodeUnknownResource = "unknown-resource"
)

// QueueUse describes one task's per-release traffic on a queue.
type QueueUse struct {
	// Queue names the queue (declared in Config.Queues).
	Queue string
	// Items is the worst-case number of items sent or received per
	// release. Ignored for receives with DrainAll.
	Items int
	// DrainAll marks a receiver that empties the queue on every release
	// (the TryRecv loop of the pipeline schemes).
	DrainAll bool
}

// TaskSpec declares one task of the platform configuration: its
// scheduling parameters plus its queue traffic.
type TaskSpec struct {
	Name   string
	Prio   int // larger runs first (RTOS convention)
	Period sim.Time
	WCET   sim.Time
	Jitter sim.Time
	// Sends and Recvs declare FIFO-queue traffic per release.
	Sends []QueueUse
	Recvs []QueueUse
}

// QueueSpec declares one FIFO queue. Capacity <= 0 means unbounded.
type QueueSpec struct {
	Name     string
	Capacity int
}

// Config is the declared platform: the full task set and its queues.
type Config struct {
	Tasks  []TaskSpec
	Queues []QueueSpec
}

// QueueReport is the capacity analysis of one queue.
type QueueReport struct {
	Name     string
	Capacity int // 0 means unbounded
	// Required is the worst-case backlog bound; -1 when no finite bound
	// exists (consumer unschedulable or producer rate exceeds the
	// consumer rate).
	Required  int
	Producers []string
	Consumers []string
}

// Report is the outcome of analyzing one platform configuration.
type Report struct {
	// Findings uses the lint severity/code conventions, so the existing
	// gate and renderers apply.
	Findings []lint.Finding
	// Tasks are the blocking-inclusive response-time results, in the
	// declared task order.
	Tasks []rta.Result
	// Queues are the capacity bounds, in the declared queue order.
	Queues []QueueReport
}

// Fatal returns the fatal findings.
func (r *Report) Fatal() []lint.Finding {
	var out []lint.Finding
	for _, f := range r.Findings {
		if f.Severity == lint.Fatal {
			out = append(out, f)
		}
	}
	return out
}

// Count returns the number of findings at the given severity.
func (r *Report) Count(s lint.Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == s {
			n++
		}
	}
	return n
}

// String renders the platform report as human text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform lint: %d findings (%d fatal, %d warn, %d info)\n",
		len(r.Findings), r.Count(lint.Fatal), r.Count(lint.Warn), r.Count(lint.Info))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	if len(r.Tasks) > 0 {
		b.WriteString("blocking-inclusive response times:\n")
		sorted := append([]rta.Result(nil), r.Tasks...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Task.Prio > sorted[j].Task.Prio })
		for _, res := range sorted {
			ok := "schedulable"
			if !res.Schedulable {
				ok = "NOT schedulable"
			}
			fmt.Fprintf(&b, "  %-14s prio=%d T=%v C=%v B=%v -> R=%v (%s)\n",
				res.Task.Name, res.Task.Prio, res.Task.Period, res.Task.WCET,
				res.Task.Blocking, res.Response, ok)
		}
	}
	for _, q := range r.Queues {
		req := fmt.Sprintf("%d", q.Required)
		if q.Required < 0 {
			req = "unbounded"
		}
		cap := fmt.Sprintf("%d", q.Capacity)
		if q.Capacity <= 0 {
			cap = "unbounded"
		}
		fmt.Fprintf(&b, "  queue %-10s cap=%s worst-case backlog=%s (producers %v, consumers %v)\n",
			q.Name, cap, req, q.Producers, q.Consumers)
	}
	return b.String()
}

// analysis carries shared state across the passes.
type analysis struct {
	cfg      Config
	findings []lint.Finding
}

func (a *analysis) add(code string, sev lint.Severity, where, format string, args ...any) {
	a.findings = append(a.findings, lint.Finding{
		Code: code, Severity: sev, Where: where, Detail: fmt.Sprintf(format, args...),
	})
}

// Analyze runs every platform analysis on the declared configuration.
// Structural errors (duplicate names, non-positive periods) are returned
// as errors, not findings, mirroring lint.Analyze.
func Analyze(cfg Config) (*Report, error) {
	a := &analysis{cfg: cfg}
	if err := a.validate(); err != nil {
		return nil, err
	}
	results, err := a.runRTA()
	if err != nil {
		return nil, err
	}
	queues := a.checkQueues(results)
	sortFindings(a.findings)
	return &Report{Findings: a.findings, Tasks: results, Queues: queues}, nil
}

func (a *analysis) validate() error {
	if len(a.cfg.Tasks) == 0 {
		return fmt.Errorf("schedlint: empty task set")
	}
	names := map[string]bool{}
	for i, t := range a.cfg.Tasks {
		if t.Name == "" {
			return fmt.Errorf("schedlint: task %d has no name", i)
		}
		if names[t.Name] {
			return fmt.Errorf("schedlint: duplicate task %q", t.Name)
		}
		if t.Period <= 0 || t.WCET <= 0 {
			return fmt.Errorf("schedlint: task %q needs positive period and WCET", t.Name)
		}
		names[t.Name] = true
	}
	seen := map[string]bool{}
	for _, q := range a.cfg.Queues {
		if q.Name == "" {
			return fmt.Errorf("schedlint: queue with no name")
		}
		if seen[q.Name] {
			return fmt.Errorf("schedlint: duplicate queue %q", q.Name)
		}
		seen[q.Name] = true
	}
	for _, t := range a.cfg.Tasks {
		for _, u := range append(append([]QueueUse(nil), t.Sends...), t.Recvs...) {
			if u.Items < 0 {
				return fmt.Errorf("schedlint: task %q has negative item count %d on queue %q", t.Name, u.Items, u.Queue)
			}
			if !seen[u.Queue] {
				a.add(CodeUnknownResource, lint.Fatal, t.Name,
					"references undeclared queue %q", u.Queue)
			}
		}
	}
	return nil
}

// runRTA runs response-time analysis over the task set and flags
// unschedulable tasks.
func (a *analysis) runRTA() ([]rta.Result, error) {
	tasks := make([]rta.Task, len(a.cfg.Tasks))
	for i, t := range a.cfg.Tasks {
		tasks[i] = rta.Task{Name: t.Name, Prio: t.Prio, Period: t.Period, WCET: t.WCET, Jitter: t.Jitter}
	}
	results, err := rta.Analyze(tasks)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if !r.Schedulable {
			a.add(CodeUnschedulable, lint.Warn, r.Task.Name,
				"blocking-inclusive response time %v exceeds the %v period (B=%v)",
				r.Response, r.Task.Period, r.Task.Blocking)
		}
	}
	return results, nil
}

func sortFindings(fs []lint.Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		if fs[i].Code != fs[j].Code {
			return fs[i].Code < fs[j].Code
		}
		return fs[i].Where < fs[j].Where
	})
}
