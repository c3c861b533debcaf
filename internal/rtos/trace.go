package rtos

import (
	"fmt"
	"strings"

	"rmtest/internal/sim"
)

// TraceKind classifies a scheduler trace record.
type TraceKind int

// Trace record kinds.
const (
	TraceReady    TraceKind = iota // task entered the ready list
	TraceDispatch                  // task took the CPU
	TracePreempt                   // task lost the CPU to a higher-priority task
	TraceSleep                     // task started sleeping until its next release
	TraceExit                      // one-shot task's body returned
	TraceISR                       // interrupt service routine ran
)

func (k TraceKind) String() string {
	switch k {
	case TraceReady:
		return "ready"
	case TraceDispatch:
		return "dispatch"
	case TracePreempt:
		return "preempt"
	case TraceSleep:
		return "sleep"
	case TraceExit:
		return "exit"
	case TraceISR:
		return "isr"
	}
	return fmt.Sprintf("TraceKind(%d)", int(k))
}

// TraceRecord is one scheduler event.
type TraceRecord struct {
	At   sim.Time
	Kind TraceKind
	Task string // empty for ISR records
}

func (r TraceRecord) String() string {
	if r.Task == "" {
		return fmt.Sprintf("%12v %s", r.At, r.Kind)
	}
	return fmt.Sprintf("%12v %-8s %s", r.At, r.Kind, r.Task)
}

// Trace is the scheduler's event record: every event since recording
// started, in chronological order. A scheduler records only after a
// caller asks for it (Scheduler.Record); until then its trace is nil and
// every add is a no-op.
type Trace struct {
	recs []TraceRecord
}

func (tr *Trace) add(at sim.Time, kind TraceKind, t *Task) {
	if tr == nil {
		return
	}
	name := ""
	if t != nil {
		name = t.name
	}
	tr.recs = append(tr.recs, TraceRecord{At: at, Kind: kind, Task: name})
}

// Records returns a copy of the records in chronological order.
func (tr *Trace) Records() []TraceRecord {
	return append([]TraceRecord(nil), tr.recs...)
}

// Filter returns the records matching kind, chronologically.
func (tr *Trace) Filter(kind TraceKind) []TraceRecord {
	var out []TraceRecord
	for _, r := range tr.recs {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// String renders the trace, one record per line.
func (tr *Trace) String() string {
	var b strings.Builder
	for _, r := range tr.recs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
