// Package fourvar implements Parnas' four-variables model as the paper
// uses it: the formal abstraction boundary of an implemented system.
//
// Monitored (m) and controlled (c) variables live at the boundary between
// the hardware platform and the physical environment; input (i) and
// output (o) variables live at the boundary between the auto-generated
// code CODE(M) and the platform. The testing framework records timed
// event traces at both boundaries and derives from them the paper's delay
// segments:
//
//	Input-Delay  = t(i) - t(m)   (§III-B (1))
//	CODE(M)-Delay = t(o) - t(i)  (§III-B (3))
//	Output-Delay = t(c) - t(o)   (§III-B (2))
//
// together with the per-transition delays measured inside CODE(M)
// (§III-B (4)).
package fourvar

import (
	"fmt"
	"sort"
	"strings"

	"rmtest/internal/sim"
)

// Kind identifies which of the four variables an event belongs to.
type Kind int

// The four variable kinds, in signal-flow order m -> i -> o -> c.
const (
	Monitored Kind = iota
	Input
	Output
	Controlled
)

func (k Kind) String() string {
	switch k {
	case Monitored:
		return "m"
	case Input:
		return "i"
	case Output:
		return "o"
	case Controlled:
		return "c"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one timed value change of a four-variable.
type Event struct {
	Kind  Kind
	Name  string
	Value int64
	At    sim.Time
}

func (e Event) String() string {
	return fmt.Sprintf("%v %s-%s=%d", e.At, e.Kind, e.Name, e.Value)
}

// Trace is an append-only timed event trace. Events must be recorded in
// non-decreasing time order (the simulator guarantees this); FirstAt
// relies on it to binary-search the events by time.
type Trace struct {
	events []Event
	taps   []func(Event)
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Tap registers fn to be called synchronously for every subsequently
// recorded event, in record order. Taps are how live consumers (the
// verdict machines in internal/core) observe the event stream as it
// happens, without copying or re-scanning the trace; they survive Reset.
func (tr *Trace) Tap(fn func(Event)) {
	if fn == nil {
		panic("fourvar: Tap with nil function")
	}
	tr.taps = append(tr.taps, fn)
}

// Record appends an event.
func (tr *Trace) Record(kind Kind, name string, value int64, at sim.Time) {
	if n := len(tr.events); n > 0 && tr.events[n-1].At > at {
		panic(fmt.Sprintf("fourvar: out-of-order event %v after %v", at, tr.events[n-1].At))
	}
	e := Event{Kind: kind, Name: name, Value: value, At: at}
	tr.events = append(tr.events, e)
	for _, fn := range tr.taps {
		fn(e)
	}
}

// Len returns the number of recorded events.
func (tr *Trace) Len() int { return len(tr.events) }

// Events returns all recorded events as a read-only view of the trace's
// backing storage — zero-copy. The view is valid until the next Reset;
// callers must not mutate it.
func (tr *Trace) Events() []Event { return tr.events }

// All returns a zero-copy range-over-func iterator over every recorded
// event in record (hence time) order. Appending to the trace while
// iterating is safe — the iteration covers the events present when it
// started.
func (tr *Trace) All() func(yield func(Event) bool) {
	events := tr.events
	return func(yield func(Event) bool) {
		for _, e := range events {
			if !yield(e) {
				return
			}
		}
	}
}

// OfSeq returns a zero-copy range-over-func iterator over the events of
// the given kind and name, in time order. Like All, the iteration covers
// the events present when it started.
func (tr *Trace) OfSeq(kind Kind, name string) func(yield func(Event) bool) {
	return func(yield func(Event) bool) {
		for _, e := range tr.events {
			if e.Kind == kind && e.Name == name && !yield(e) {
				return
			}
		}
	}
}

// CountOf returns the number of events of the given kind and name.
func (tr *Trace) CountOf(kind Kind, name string) int {
	n := 0
	for _, e := range tr.events {
		if e.Kind == kind && e.Name == name {
			n++
		}
	}
	return n
}

// FirstAt returns the first event of kind/name at or after t that
// satisfies pred (nil pred matches any value): a binary search for t,
// then a forward scan.
func (tr *Trace) FirstAt(kind Kind, name string, t sim.Time, pred func(int64) bool) (Event, bool) {
	i := sort.Search(len(tr.events), func(i int) bool { return tr.events[i].At >= t })
	for _, e := range tr.events[i:] {
		if e.Kind == kind && e.Name == name && (pred == nil || pred(e.Value)) {
			return e, true
		}
	}
	return Event{}, false
}

// Reset discards all recorded events while retaining capacity, so a
// reused trace (the campaign engine's per-worker scratch) records without
// reallocating. Registered taps are retained: they are wiring, not data.
// Reset invalidates the contents of previously returned Events() views.
func (tr *Trace) Reset() { tr.events = tr.events[:0] }

// ClearTaps removes every registered tap. Run-scoped consumers (the
// verdict machines) tap the trace for exactly one run; scratch reuse must
// drop that wiring before the next run or stale observers would keep
// consuming — and keep scheduling watchdog events on the reused kernel.
func (tr *Trace) ClearTaps() { tr.taps = tr.taps[:0] }

// String renders the trace, one event per line.
func (tr *Trace) String() string {
	var b strings.Builder
	for _, e := range tr.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TransitionDelay is one measured transition execution inside CODE(M):
// the paper's Transition-Delay (§III-B (4)).
type TransitionDelay struct {
	Index   int
	Label   string
	Start   sim.Time
	Finish  sim.Time
	Outputs []string // output variables this transition wrote
}

// Duration returns the transition's execution time.
func (td TransitionDelay) Duration() sim.Time { return td.Finish - td.Start }

func (td TransitionDelay) String() string {
	return fmt.Sprintf("%s [%v..%v] = %v", td.Label, td.Start, td.Finish, td.Duration())
}

// TransitionTrace records transition executions; it implements the shape
// codegen.Listener needs via the adapter in internal/platform.
type TransitionTrace struct {
	open map[int]sim.Time // start time of in-flight transitions by index
	recs []TransitionDelay
}

// NewTransitionTrace returns an empty transition trace.
func NewTransitionTrace() *TransitionTrace {
	return &TransitionTrace{open: make(map[int]sim.Time)}
}

// Start records the beginning of a transition execution.
func (tt *TransitionTrace) Start(index int, label string, at sim.Time) {
	tt.open[index] = at
}

// Finish records the end of a transition execution.
func (tt *TransitionTrace) Finish(index int, label string, at sim.Time, outputs []string) {
	start, ok := tt.open[index]
	if !ok {
		start = at
	}
	delete(tt.open, index)
	tt.recs = append(tt.recs, TransitionDelay{
		Index: index, Label: label, Start: start, Finish: at, Outputs: outputs,
	})
}

// Records returns all completed transition executions in time order.
func (tt *TransitionTrace) Records() []TransitionDelay {
	return append([]TransitionDelay(nil), tt.recs...)
}

// Between returns completed transition executions with Start in [from, to].
func (tt *TransitionTrace) Between(from, to sim.Time) []TransitionDelay {
	var out []TransitionDelay
	for _, r := range tt.recs {
		if r.Start >= from && r.Start <= to {
			out = append(out, r)
		}
	}
	return out
}

// Reset discards all records, retaining capacity for reuse.
func (tt *TransitionTrace) Reset() {
	tt.recs = tt.recs[:0]
	clear(tt.open)
}

// Mapping relates the two abstraction boundaries: which i-event the
// platform's Input-Device derives from each m-variable, and which
// c-variable the Output-Device drives from each o-variable.
type Mapping struct {
	// MtoI maps a monitored signal name to the chart input event (or
	// input variable) the Input-Device produces from it.
	MtoI map[string]string
	// OtoC maps a chart output variable to the controlled signal the
	// Output-Device drives from it.
	OtoC map[string]string
}

// Validate checks the mapping is non-empty and injective per direction.
func (mp Mapping) Validate() error {
	if len(mp.MtoI) == 0 || len(mp.OtoC) == 0 {
		return fmt.Errorf("fourvar: mapping must cover at least one m->i and one o->c pair")
	}
	seen := make(map[string]string)
	for m, i := range mp.MtoI {
		if prev, dup := seen[i]; dup {
			return fmt.Errorf("fourvar: i-event %q mapped from both %q and %q", i, prev, m)
		}
		seen[i] = m
	}
	seen = make(map[string]string)
	for o, c := range mp.OtoC {
		if prev, dup := seen[c]; dup {
			return fmt.Errorf("fourvar: c-signal %q mapped from both %q and %q", c, prev, o)
		}
		seen[c] = o
	}
	return nil
}

// MNames returns the monitored signal names, sorted.
func (mp Mapping) MNames() []string { return sortedKeys(mp.MtoI) }

// ONames returns the output variable names, sorted.
func (mp Mapping) ONames() []string { return sortedKeys(mp.OtoC) }

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Segments is a fully matched m -> i -> o -> c causal chain with its
// delay decomposition: the output of M-testing for one test sample
// (Fig. 3-(c) and (d) of the paper).
type Segments struct {
	M, I, O, C  Event
	Transitions []TransitionDelay
}

// InputDelay is the m -> i segment.
func (s Segments) InputDelay() sim.Time { return s.I.At - s.M.At }

// CodeDelay is the i -> o segment (the CODE(M)-Delay).
func (s Segments) CodeDelay() sim.Time { return s.O.At - s.I.At }

// OutputDelay is the o -> c segment.
func (s Segments) OutputDelay() sim.Time { return s.C.At - s.O.At }

// Total is the end-to-end m -> c delay R-testing observes.
func (s Segments) Total() sim.Time { return s.C.At - s.M.At }

// TransitionTotal is the summed execution time of the measured
// transitions; it is a lower bound on CodeDelay (the rest is scheduling
// interference and step overhead).
func (s Segments) TransitionTotal() sim.Time {
	var sum sim.Time
	for _, td := range s.Transitions {
		sum += td.Duration()
	}
	return sum
}

func (s Segments) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "m@%v -> i@%v -> o@%v -> c@%v | input=%v code=%v output=%v total=%v",
		s.M.At, s.I.At, s.O.At, s.C.At,
		s.InputDelay(), s.CodeDelay(), s.OutputDelay(), s.Total())
	for _, td := range s.Transitions {
		fmt.Fprintf(&b, "\n  trans %s", td.String())
	}
	return b.String()
}

// MatchSpec identifies the causal chain to extract: the stimulus
// m-variable and the response o-variable, with optional value predicates
// (nil matches any change). OPred applies to the o-boundary only; the
// Controlled event has its own CPred, because the output-variable encoding
// and the controlled-signal encoding need not coincide (an output device
// may rescale the value it drives).
type MatchSpec struct {
	MName string
	MPred func(int64) bool
	IName string // i-event/variable name (defaults via Mapping)
	OName string
	OPred func(int64) bool
	CName string // c-signal name (defaults via Mapping)
	CPred func(int64) bool
	// Deadline, when positive, bounds the whole chain: every event of the
	// match must occur within Deadline of the m-event, mirroring the
	// requirement timeout the R-verdict was computed with. Without it the
	// c-search could run past the timeout and return a later response than
	// the one the verdict judged.
	Deadline sim.Time
}

// Match extracts the delay segments for the stimulus at mAt. It finds the
// m-event at or after mAt, then the first matching i-event, then the
// first matching o-event after the i-event, then the first matching
// c-event after the o-event, and finally the transitions executed in the
// [i, o] window. It reports ok=false when any link of the chain is
// missing (e.g. the response never occurred before the trace ended) or,
// with a Deadline set, when any link falls past the deadline — a chain
// that slow belongs to a later cause, not to this stimulus.
func Match(tr *Trace, tt *TransitionTrace, spec MatchSpec, mAt sim.Time) (Segments, bool) {
	var s Segments
	m, ok := tr.FirstAt(Monitored, spec.MName, mAt, spec.MPred)
	if !ok {
		return s, false
	}
	s.M = m
	within := func(e Event) bool {
		return spec.Deadline <= 0 || e.At-m.At <= spec.Deadline
	}
	i, ok := tr.FirstAt(Input, spec.IName, m.At, nil)
	if !ok || !within(i) {
		return s, false
	}
	s.I = i
	o, ok := tr.FirstAt(Output, spec.OName, i.At, spec.OPred)
	if !ok || !within(o) {
		return s, false
	}
	s.O = o
	c, ok := tr.FirstAt(Controlled, spec.CName, o.At, spec.CPred)
	if !ok || !within(c) {
		return s, false
	}
	s.C = c
	if tt != nil {
		s.Transitions = tt.Between(i.At, o.At)
	}
	return s, true
}
