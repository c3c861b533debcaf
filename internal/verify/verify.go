// Package verify checks timing requirements at the model level — the
// "Modeling & Verification" phase of Fig. 1, for which the paper's case
// study uses Simulink Design Verifier. It establishes the framework's
// premise: the requirement HOLDS on the model (with its
// instantaneous-input semantics), so any violation R-testing later finds
// in the implemented system is a platform-integration effect, not a model
// bug.
//
// The checker performs explicit-state bounded model checking over chart
// configurations. Inputs are nondeterministic: every subset of input
// events and every combination of declared input-variable domains is
// explored at each tick. Temporal counters are soundly saturated above
// the chart's largest temporal constant, making the reachable abstract
// state space finite.
//
// States are stepped once per step class (codegen.Exec.AppendStepClass):
// the leaf, every variable, and the truth of every temporal trigger on
// the active path. Two states of one class step alike, so the first
// state of a class is stepped, and every later one takes its successors
// from those steps, each row rebuilt by the state's own tick. The first
// is stepped once per class of event subsets its step can tell apart: a
// subset that agrees with one already stepped from the state, on the
// same input combination, on every event that step tested
// (codegen.Exec.Tested) would repeat it exactly, so it is skipped. The
// states visited, their order and every result are those of stepping
// every subset from every state. Explored states are fixed-size records
// and executor rows in chunked storage, keyed in a pointer-free visited
// set, with no heap object per state.
//
// The checker steps the program the chart compiles to (codegen.Generate)
// on codegen.Exec with a nil ExecEnv and listener: the chart runtime the
// platform runs, with no cost charged. Its tests run the same exploration
// on the chart interpreter (internal/interp), with the former text state
// key, on random charts and properties, and require identical results.
package verify

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"

	"rmtest/internal/codegen"
	"rmtest/internal/statechart"
)

// ResponseProperty is the verified requirement shape (REQ1's model-level
// form): whenever Event fires while the chart is in InState, Output must
// change to a value satisfying Target within WithinTicks E_CLK ticks.
type ResponseProperty struct {
	Name string
	// Event is the triggering input event.
	Event string
	// InState restricts triggering to configurations whose active path
	// contains this state. Empty means any state.
	InState string
	// Output is the observed output variable.
	Output string
	// Target decides whether an output change discharges the obligation.
	Target func(int64) bool
	// TargetDesc documents Target in reports.
	TargetDesc string
	// WithinTicks is the deadline in E_CLK ticks.
	WithinTicks int64
}

// Options bound the exploration.
type Options struct {
	// MaxVisited caps the number of distinct abstract states explored;
	// hitting the cap yields OutcomeBounded. Default 200000.
	MaxVisited int
	// InputDomains lists the values explored for each input variable.
	// Variables without an entry default to {0, 1}. A key that is not an
	// input variable is an error.
	InputDomains map[string][]int64
}

// maxSuccessors bounds the successors of one state: 2^|events| times the
// number of input combinations. A chart over it is rejected before
// anything is explored. The largest shipped chart, gpca-extended, has 512.
const maxSuccessors = 1 << 16

// Outcome classifies a verification result.
type Outcome int

// Verification outcomes.
const (
	// Holds: the property is satisfied on every reachable configuration.
	Holds Outcome = iota
	// Violated: a counterexample trace was found.
	Violated
	// Bounded: no violation found before the state cap was hit.
	Bounded
)

func (o Outcome) String() string {
	switch o {
	case Holds:
		return "holds"
	case Violated:
		return "VIOLATED"
	case Bounded:
		return "bounded"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// CexStep is one tick of a counterexample trace.
type CexStep struct {
	Events []string
	Inputs map[string]int64
	State  string // active leaf after the step
}

// Result is a verification verdict.
type Result struct {
	Property ResponseProperty
	Outcome  Outcome
	Visited  int
	// Steps counts the steps of the generated program the check ran,
	// once per step class and stimulus class: the work behind Visited.
	Steps uint64
	// Counterexample is the stimulus sequence leading to the violation
	// (only for Violated).
	Counterexample []CexStep
}

func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %v (visited %d states)", r.Property.Name, r.Outcome, r.Visited)
	for i, s := range r.Counterexample {
		fmt.Fprintf(&b, "\n  tick %d: events=%v -> %s", i, s.Events, s.State)
	}
	return b.String()
}

// record is one explored state: how the search reached it and the
// obligation it carries. A counterexample's events, inputs and states
// are rebuilt from the records and rows only when a violation is found.
type record struct {
	parent     int   // the index of the record reached from; -1 for the root
	subset     int32 // the event subset that reached it, see stimuli
	combo      int32 // the input combination that reached it
	obligation int64 // remaining ticks; -1 = none pending
}

// classEntry is one stimulus a step class steps, subset k on combination
// c, with the check's judgement of its step (explorer.judge). The
// successor's leaf, variables and entered states are the entry's block
// of explorer.succ.
type classEntry struct {
	subset, combo int32
	judged        bool
}

// explorer steps the chart's generated program through the state space.
// It keeps the explored states, as records and executor rows, in a store
// whose order is the breadth-first queue's, and their keys in the visited
// set; neither holds a heap object per state.
type explorer struct {
	exec    *codegen.Exec
	stim    stimuli
	masks   []uint64 // subset index -> the program's event mask
	bits    []int    // program event id -> its bit in a subset index
	inputs  []int    // the program's slots of stim.inputs
	limit   int64
	rel     []int
	buf     []byte
	visited keySet
	states  stateStore
	// covered marks, for the state being expanded, the stimuli (combo c,
	// subset k at c*len(masks)+k) that would repeat a step already run.
	covered []bool
	// classes keys the step classes (codegen.Exec.AppendStepClass) met so
	// far. Class n's entries are entries[starts[n]:starts[n+1]]: a class
	// is complete before another of its states is expanded, because its
	// first state's expansion steps every stimulus or ends the search.
	// Entry j's successor block is succ[j*width:(j+1)*width]: a row whose
	// entry ticks are replaced by 1 for each state the step entered and 0
	// for the others, and whose tick is not read. next is the row a
	// replayed entry is rebuilt in.
	classes keySet
	starts  []int32
	entries []classEntry
	succ    []int64
	next    []int64
	// entryOff is the offset of the entry ticks in a row: after the leaf,
	// the tick and the variables (codegen.Exec.AppendRow).
	entryOff int
	// trigger is a response property's event as a subset bit, and
	// inState its InState's id (-1 for any state); an invariant has no
	// trigger.
	trigger int
	inState int
	// judge judges a stimulus once, from the executor right after its
	// step; decide judges each successor, given the obligation its source
	// carries, whether the step fired the trigger, and the stimulus's
	// judgement, and returns the successor's obligation and whether it
	// violates the property.
	judge  func() bool
	decide func(obligation int64, triggered, judged bool) (int64, bool)
}

// newExplorer generates the chart's program, runs it from its initial
// configuration, and records and marks that configuration visited. The
// checks call it only once their arguments have passed verify's own
// tests, so a chart the checker cannot explore is rejected with verify's
// error, not the code generator's.
func newExplorer(cc *statechart.Compiled, stim stimuli, rel []int, limit int64) (*explorer, error) {
	prog, err := codegen.Generate(cc)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	x := &explorer{
		exec:     codegen.NewExec(prog, codegen.ZeroCostModel(), nil, nil),
		stim:     stim,
		masks:    make([]uint64, 1<<len(stim.events)),
		bits:     make([]int, len(prog.Events)),
		limit:    limit,
		rel:      rel,
		visited:  newKeySet(),
		covered:  make([]bool, stim.combos<<len(stim.events)),
		classes:  newKeySet(),
		entryOff: 2 + len(prog.Vars),
		inState:  -1,
	}
	w := x.exec.RowLen()
	x.states = newStateStore(w)
	// A chart's classes are few beside its states: gpca's 12,003 states
	// fall in 5 classes with 27 entries.
	x.starts = append(make([]int32, 0, classCap), 0)
	x.entries = make([]classEntry, 0, classCap)
	x.succ = make([]int64, 0, classCap*w)
	x.next = make([]int64, w)
	x.exec.RecordWrites()
	for i, name := range stim.events {
		id, _ := prog.EventID(name)
		x.bits[id] = 1 << i
	}
	for k := range x.masks {
		for id, bit := range x.bits {
			if k&bit != 0 {
				x.masks[k] |= 1 << id
			}
		}
	}
	for _, name := range stim.inputs {
		id, _ := prog.VarID(name)
		x.inputs = append(x.inputs, id)
	}
	x.visit(-1)
	x.states.add(record{parent: -1, obligation: -1}, x.exec)
	return x, nil
}

// step runs one tick on event subset k and input combination c, and
// returns the step's error.
func (x *explorer) step(k, c int) error {
	for j, v := range x.stim.combo(c) {
		x.exec.SetInputID(x.inputs[j], v)
	}
	return x.exec.Step(x.masks[k]).Err
}

// visit keys the executor's configuration with the obligation remaining
// and reports whether the key is new, adding it if so.
func (x *explorer) visit(obligation int64) bool {
	b := key(x.buf, x.exec, obligation, x.limit, x.rel)
	if cap(b) > cap(x.buf) {
		x.buf = b // keep the grown buffer
	}
	_, fresh := x.visited.add(b)
	return fresh
}

// class returns the index of the executor's step class, and whether the
// class is new, adding it if so.
func (x *explorer) class() (int, bool) {
	b := x.exec.AppendStepClass(x.buf[:0])
	if cap(b) > cap(x.buf) {
		x.buf = b // keep the grown buffer
	}
	return x.classes.add(b)
}

// explore searches breadth-first from the recorded root, which the
// caller has judged, until the property is violated, res.Visited
// reaches maxVisited, or no state is left to expand; it sets
// res.Outcome, and res.Counterexample on a violation.
//
// A state's successors come from its step class
// (codegen.Exec.AppendStepClass). The first state of a class steps it
// (fill); every later state of the class takes its successors from the
// class's entries, rebuilt by its tick (rebuild), in the same order. Two
// states of one class step alike, so each rebuilt row is exactly the row
// a step would give, and the judgements and tested bits are the same.
// The class holds the leaf, so it fixes whether the state arms the
// trigger too. The states visited, their order and the outcome are those
// of stepping every state; only res.Steps, the steps run, falls.
func (x *explorer) explore(res *Result, maxVisited int) error {
	e := x.exec
	for i := 0; i < x.states.n; i++ {
		ob := x.states.record(i).obligation
		row := x.states.row(i)
		e.LoadRow(row)
		// The trigger is judged in the pre-step configuration; no
		// stimulus changes its active path.
		armed := x.trigger != 0 && (x.inState < 0 || e.InActivePath(x.inState))
		cls, fresh := x.class()
		if fresh {
			if done, err := x.fill(res, maxVisited, i, row, ob, armed); done || err != nil {
				return err
			}
			x.starts = append(x.starts, int32(len(x.entries)))
			continue
		}
		for j := int(x.starts[cls]); j < int(x.starts[cls+1]); j++ {
			x.rebuild(x.next, row, j)
			e.LoadRow(x.next)
			if x.arrive(res, maxVisited, i, x.entries[j], ob, armed) {
				return nil
			}
		}
	}
	res.Outcome = Holds
	return nil
}

// fill steps state i, the first of its class, and keeps each stimulus it
// steps as an entry of the class, judging each successor as it goes, so
// a check that ends inside it steps no more than it must. It reports
// whether the search is over.
//
// It steps each event subset and, within it, each input combination,
// skipping the stimuli a step already run covers: after subset k on
// combination c, every subset that agrees with k on the bits the step
// tested (codegen.Exec.Tested, plus the trigger's bit when the state arms
// it) would repeat the step exactly. Such a subset has a larger index
// than its representative k, so its successor would have the key and the
// obligation of one already keyed, and it would violate only if k, which
// comes first, had. Skipping it changes neither the states visited, nor
// their order, nor the outcome. Combinations are never merged: an input's
// value stays in the configuration.
func (x *explorer) fill(res *Result, maxVisited, i int, row []int64, ob int64, armed bool) (bool, error) {
	e := x.exec
	n := len(x.masks)
	clear(x.covered)
	for k := range n {
		for c := range x.stim.combos {
			if x.covered[c*n+k] {
				continue
			}
			e.LoadRow(row)
			if err := x.step(k, c); err != nil {
				return true, fmt.Errorf("verify: model error during exploration: %w", err)
			}
			tested := 0
			for t := e.Tested(); t != 0; t &= t - 1 {
				tested |= x.bits[bits.TrailingZeros64(t)]
			}
			if armed {
				tested |= x.trigger
			}
			x.cover(c, k, tested)
			en := classEntry{subset: int32(k), combo: int32(c), judged: x.judge()}
			x.entries = append(x.entries, en)
			x.keep(row[1])
			if x.arrive(res, maxVisited, i, en, ob, armed) {
				return true, nil
			}
		}
	}
	return false, nil
}

// keep appends the executor's configuration, just stepped from tick, to
// succ as a successor block: a state whose entry tick is tick was entered
// by the step. The step leaves every other entry tick below tick, except
// from the root, whose entry ticks are all 0 at tick 0; only the root has
// a state in for no ticks, so its class holds it alone and its block is
// never replayed.
func (x *explorer) keep(tick int64) {
	n := len(x.succ)
	x.succ = x.exec.AppendRow(x.succ)
	for s := n + x.entryOff; s < len(x.succ); s++ {
		if x.succ[s] == tick {
			x.succ[s] = 1
		} else {
			x.succ[s] = 0
		}
	}
}

// rebuild writes to dst the row of row's successor on class entry j: the
// entry's leaf and variables, row's tick plus one, and row's tick as the
// entry tick of each state the entry's step entered, every other entry
// tick as in row.
func (x *explorer) rebuild(dst, row []int64, j int) {
	w := len(row)
	blk := x.succ[j*w : (j+1)*w]
	copy(dst[:x.entryOff], blk)
	dst[1] = row[1] + 1
	for s := x.entryOff; s < w; s++ {
		if blk[s] != 0 {
			dst[s] = row[1]
		} else {
			dst[s] = row[s]
		}
	}
}

// arrive judges the successor the executor holds, reached from state i,
// which carries obligation ob, on entry en's stimulus, and records it if
// its key is new. It reports whether the search is over: the property is
// violated, or res.Visited reached maxVisited.
func (x *explorer) arrive(res *Result, maxVisited, i int, en classEntry, ob int64, armed bool) bool {
	k, c := int(en.subset), int(en.combo)
	next, violated := x.decide(ob, armed && k&x.trigger != 0, en.judged)
	if violated {
		res.Outcome = Violated
		res.Counterexample = x.counterexample(i, k, c)
		return true
	}
	if !x.visit(next) {
		return false
	}
	res.Visited++
	if res.Visited >= maxVisited {
		res.Outcome = Bounded
		return true
	}
	x.states.add(record{parent: i, subset: en.subset, combo: en.combo, obligation: next}, x.exec)
	return false
}

// cover marks as covered, on combination c, every subset that agrees
// with subset k on the tested bits.
func (x *explorer) cover(c, k, tested int) {
	n := len(x.masks)
	covered := x.covered[c*n : (c+1)*n]
	free, fixed := (n-1)&^tested, k&tested
	for sub := free; ; sub = (sub - 1) & free {
		covered[fixed|sub] = true
		if sub == 0 {
			return
		}
	}
}

// counterexample rebuilds the stimulus path to the executor's current
// configuration, reached from record i on subset k and combination c. It
// loads each ancestor's row to name its leaf, so exploration ends with
// it.
func (x *explorer) counterexample(i, k, c int) []CexStep {
	out := []CexStep{x.stim.cexStep(k, c, x.exec.ActiveState())}
	for r := x.states.record(i); r.parent >= 0; i, r = r.parent, x.states.record(r.parent) {
		x.exec.LoadRow(x.states.row(i))
		out = append(out, x.stim.cexStep(int(r.subset), int(r.combo), x.exec.ActiveState()))
	}
	slices.Reverse(out)
	return out
}

// CheckResponse verifies prop on the compiled chart.
func CheckResponse(cc *statechart.Compiled, prop ResponseProperty, opt Options) (Result, error) {
	if err := checkResponseProperty(cc, prop); err != nil {
		return Result{}, err
	}
	maxVisited := opt.MaxVisited
	if maxVisited <= 0 {
		maxVisited = 200000
	}
	limit := max(cc.MaxTemporalConst()+1, prop.WithinTicks+1)
	stim, err := newStimuli(cc, opt.InputDomains)
	if err != nil {
		return Result{}, err
	}
	rel, err := cone(cc, prop.Output)
	if err != nil {
		return Result{}, err
	}
	x, err := newExplorer(cc, stim, rel, limit)
	if err != nil {
		return Result{}, err
	}
	prog, e := x.exec.Program(), x.exec
	ev, _ := prog.EventID(prop.Event)
	x.trigger = x.bits[ev]
	out, _ := prog.VarID(prop.Output)
	if prop.InState != "" {
		x.inState, _ = prog.StateID(prop.InState)
	}
	x.judge = func() bool { return discharged(e.Writes(), out, prop.Target) }
	x.decide = func(ob int64, triggered, discharges bool) (int64, bool) {
		// Only the oldest pending obligation is tracked, which is sound
		// and complete for this property class: a matching output write
		// discharges every pending obligation at once (younger triggers
		// see the same response with a smaller delay), so the oldest
		// obligation is always the binding one.
		if triggered && ob < 0 {
			ob = prop.WithinTicks
		}
		switch {
		case ob < 0:
			return ob, false
		case discharges:
			return -1, false
		case ob == 0:
			return 0, true // the deadline expired without the response
		}
		return ob - 1, false
	}
	res := Result{Property: prop, Visited: 1}
	err = x.explore(&res, maxVisited)
	res.Steps = e.Steps()
	return res, err
}

// checkResponseProperty rejects a property that names no event, output or
// target, names one the chart does not declare, or has a negative
// deadline.
func checkResponseProperty(cc *statechart.Compiled, prop ResponseProperty) error {
	if prop.Event == "" || prop.Output == "" || prop.Target == nil {
		return fmt.Errorf("verify: property needs Event, Output and Target")
	}
	if !slices.Contains(cc.EventNames(), prop.Event) {
		return fmt.Errorf("verify: unknown event %q", prop.Event)
	}
	if !slices.Contains(cc.VarNames(statechart.Output), prop.Output) {
		return fmt.Errorf("verify: unknown output %q", prop.Output)
	}
	if prop.InState != "" && !slices.Contains(cc.StateNames(), prop.InState) {
		return fmt.Errorf("verify: unknown state %q", prop.InState)
	}
	if prop.WithinTicks < 0 {
		return fmt.Errorf("verify: negative deadline")
	}
	return nil
}

// discharged reports whether any output write to slot out satisfies
// target. Writes (not net changes) are checked: a response that is
// overwritten later in the same super-step still occurred as a
// model-level o-event.
func discharged(writes []codegen.Write, out int, target func(int64) bool) bool {
	for _, w := range writes {
		if w.Var == out && target(w.Value) {
			return true
		}
	}
	return false
}

// cone resolves the cone of influence of the seed variables to variable
// ids: declaration-order indices, which are also the generated program's
// variable slots. A seed the chart does not declare is an error.
func cone(cc *statechart.Compiled, seeds ...string) ([]int, error) {
	decls := cc.Declarations()
	for _, s := range seeds {
		if !slices.ContainsFunc(decls, func(d statechart.VarDecl) bool { return d.Name == s }) {
			return nil, fmt.Errorf("verify: undeclared variable %q", s)
		}
	}
	relevant := relevantVars(cc, seeds...)
	var ids []int
	for id, d := range decls {
		if relevant[d.Name] {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// relevantVars computes the cone of influence: variables whose values can
// affect control flow (guards) or any of the seed variables, directly or
// through chains of assignments. Variables outside the cone — pure
// counters that are written but never read, like the pump's bolus_count —
// are projected out of the abstract state, keeping the exploration
// finite.
func relevantVars(cc *statechart.Compiled, seeds ...string) map[string]bool {
	relevant := map[string]bool{}
	for _, s := range seeds {
		relevant[s] = true
	}
	// Collect every assignment once.
	type assign struct {
		target string
		reads  []string
	}
	var assigns []assign
	addAction := func(a statechart.Action) {
		for _, as := range a {
			assigns = append(assigns, assign{target: as.Name, reads: statechart.Refs(as.X, nil)})
		}
	}
	cc.WalkStates(func(s statechart.StateInfo) {
		addAction(s.Entry)
		addAction(s.Exit)
	})
	cc.WalkTransitions(func(t statechart.TransitionInfo) {
		for _, r := range statechart.Refs(t.Guard, nil) {
			relevant[r] = true
		}
		addAction(t.Action)
	})
	// Fixpoint: reads feeding a relevant target become relevant.
	for changed := true; changed; {
		changed = false
		for _, a := range assigns {
			if !relevant[a.target] {
				continue
			}
			for _, r := range a.reads {
				if !relevant[r] {
					relevant[r] = true
					changed = true
				}
			}
		}
	}
	return relevant
}

// key canonicalises the abstract state into buf's storage: the
// executor's configuration encoding (codegen.Exec.AppendConfig), with
// active-path counters saturated at limit and the cone-of-influence
// variables rel, followed by the obligation remaining (8 bytes). The
// configuration's width is fixed by its leaf, which comes first, so the
// obligation sits at a fixed offset for each leaf and equal keys mean
// equal abstract states.
func key(buf []byte, e *codegen.Exec, obligation, limit int64, rel []int) []byte {
	buf = e.AppendConfig(buf[:0], limit, rel)
	return binary.LittleEndian.AppendUint64(buf, uint64(obligation))
}

// stimuli are the stimuli every state's successors are generated from,
// in exploration order: each event subset, and within it each input
// combination. Subset k holds events[i] for each set bit i of k.
// Combination c gives inputs[j] the value values[c*len(inputs)+j]; the
// first input varies slowest.
type stimuli struct {
	events []string // sorted
	inputs []string // sorted
	values []int64
	combos int
}

// newStimuli returns the chart's stimuli. It first checks that each
// domain key is an input variable and that the successor count stays
// within maxSuccessors.
func newStimuli(cc *statechart.Compiled, domains map[string][]int64) (stimuli, error) {
	events := cc.EventNames()
	inputs := cc.VarNames(statechart.Input)
	var stray []string
	for name := range domains {
		if !slices.Contains(inputs, name) {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		return stimuli{}, fmt.Errorf("verify: input domain for %q, which is not an input variable", slices.Min(stray))
	}
	if !withinSuccessorBound(len(events), inputs, domains) {
		return stimuli{}, fmt.Errorf("verify: more than %d successors per state (%d events, %d input variables)",
			maxSuccessors, len(events), len(inputs))
	}
	s := stimuli{events: events, inputs: inputs, combos: 1}
	for j, v := range inputs {
		dom := domains[v]
		if len(dom) == 0 {
			dom = []int64{0, 1}
		}
		next := make([]int64, 0, s.combos*len(dom)*(j+1))
		for c := range s.combos {
			for _, val := range dom {
				next = append(next, s.values[c*j:(c+1)*j]...)
				next = append(next, val)
			}
		}
		s.values, s.combos = next, s.combos*len(dom)
	}
	return s, nil
}

// combo returns the input values of combination c, in inputs order.
func (s stimuli) combo(c int) []int64 {
	n := len(s.inputs)
	return s.values[c*n : (c+1)*n]
}

// cexStep names the stimulus of subset k and combination c, and the leaf
// it led to, as a counterexample step.
func (s stimuli) cexStep(k, c int, state string) CexStep {
	var events []string
	for i, e := range s.events {
		if k&(1<<i) != 0 {
			events = append(events, e)
		}
	}
	inputs := make(map[string]int64, len(s.inputs))
	for j, v := range s.combo(c) {
		inputs[s.inputs[j]] = v
	}
	return CexStep{Events: events, Inputs: inputs, State: state}
}

// withinSuccessorBound reports whether 2^events times the number of input
// combinations is at most maxSuccessors. The running product never
// exceeds maxSuccessors, so it cannot overflow.
func withinSuccessorBound(events int, inputs []string, domains map[string][]int64) bool {
	n := 1
	for range events {
		if n > maxSuccessors/2 {
			return false
		}
		n *= 2
	}
	for _, v := range inputs {
		d := len(domains[v])
		if d == 0 {
			d = 2
		}
		if n > maxSuccessors/d {
			return false
		}
		n *= d
	}
	return true
}

// InvariantProperty is a safety property: the predicate must hold in
// every reachable configuration (AG pred). The predicate sees the active
// leaf state name and the full valuation.
type InvariantProperty struct {
	Name string
	// Holds returns true when the configuration is acceptable. It must be
	// a pure function of its arguments: the checker calls it once per
	// step class and stimulus, and applies the answer to every state of
	// the class. vars is the checker's one map, refilled for every call,
	// so it is valid only during the call: a predicate that keeps the
	// valuation copies it.
	Holds func(state string, vars map[string]int64) bool
	// Reads lists the variables the predicate depends on. The checker
	// projects all other non-control-flow variables out of the abstract
	// state (cone of influence), which keeps charts with free-running
	// counters finite. Listing too few variables makes the check unsound;
	// listing all of them is always safe but may not terminate within the
	// state budget. A name the chart does not declare is an error.
	Reads []string
}

// CheckInvariant explores the chart's reachable configurations under
// nondeterministic inputs and checks the invariant in each. The
// exploration is exact up to the same counter saturation as
// CheckResponse. The abstract state keeps the cone of influence of
// prop.Reads and of every guard; the predicate still sees the full
// valuation.
func CheckInvariant(cc *statechart.Compiled, prop InvariantProperty, opt Options) (Result, error) {
	if prop.Holds == nil {
		return Result{}, fmt.Errorf("verify: invariant needs a predicate")
	}
	maxVisited := opt.MaxVisited
	if maxVisited <= 0 {
		maxVisited = 200000
	}
	limit := cc.MaxTemporalConst() + 1
	rel, err := cone(cc, prop.Reads...)
	if err != nil {
		return Result{}, fmt.Errorf("%w in the invariant's Reads", err)
	}
	stim, err := newStimuli(cc, opt.InputDomains)
	if err != nil {
		return Result{}, err
	}
	x, err := newExplorer(cc, stim, rel, limit)
	if err != nil {
		return Result{}, err
	}
	e := x.exec
	vars := e.Vars()
	res := Result{Property: ResponseProperty{Name: prop.Name}, Visited: 1}
	if !prop.Holds(e.ActiveState(), vars) {
		res.Outcome = Violated
		return res, nil
	}
	// A successor's leaf and valuation are fixed by its class entry, so
	// the predicate runs once per entry.
	x.judge = func() bool {
		e.FillVars(vars)
		return !prop.Holds(e.ActiveState(), vars)
	}
	x.decide = func(_ int64, _, violates bool) (int64, bool) { return -1, violates }
	err = x.explore(&res, maxVisited)
	res.Steps = e.Steps()
	return res, err
}

// stateStore keeps the explored states in breadth-first order, each as
// a record and an executor row, in chunks of perChunk states. A chunk is
// never reallocated: growing adds one and copies nothing.
type stateStore struct {
	width, perChunk int
	n               int // states stored
	records         [][]record
	rows            [][]int64
}

// classCap is the number of classes and entries the checker makes room
// for up front; more grow the slices.
const classCap = 64

// rowChunk is the number of row values a chunk holds, unless one row is
// wider.
const rowChunk = 16 << 10

func newStateStore(width int) stateStore {
	return stateStore{width: width, perChunk: max(1, rowChunk/width)}
}

// add stores r and the executor's configuration as the next state. The
// row is appended into its chunk's spare room, so no slice header is
// stored.
func (s *stateStore) add(r record, e *codegen.Exec) {
	c, j := s.n/s.perChunk, s.n%s.perChunk
	if j == 0 {
		s.records = append(s.records, make([]record, s.perChunk))
		s.rows = append(s.rows, make([]int64, s.width*s.perChunk))
	}
	s.records[c][j] = r
	e.AppendRow(s.rows[c][j*s.width : j*s.width])
	s.n++
}

// record returns state i's record.
func (s *stateStore) record(i int) record { return s.records[i/s.perChunk][i%s.perChunk] }

// row returns state i's row.
func (s *stateStore) row(i int) []int64 {
	off := i % s.perChunk * s.width
	return s.rows[i/s.perChunk][off : off+s.width]
}

// keySet numbers distinct byte keys in the order they are added: the
// visited set and the step classes are each one. The keys' bytes sit in
// chunks that are never reallocated, and an open-addressing table of
// fixed-size slots with no pointers locates them, so the garbage
// collector scans neither and growing copies no key. Only membership and
// the numbers are observed, so neither the hash nor the slot order
// reaches an output.
type keySet struct {
	seed   maphash.Seed
	slots  []keySlot // a power of two long, at most three quarters full
	shift  uint      // 32 - log2(len(slots)): a hash's top bits pick its slot
	used   int
	chunks [][]byte
	fill   int // bytes used in the last chunk
}

// keySlot locates one key: its bytes are chunks[chunk][off:off+len], and
// id is its number. A zero len marks an empty slot, since no key is
// empty. hash is the top half of the key's hash.
type keySlot struct {
	hash, len, chunk, off, id uint32
}

// keyChunk is the number of bytes a key chunk holds, unless one key is
// longer.
const keyChunk = 64 << 10

func newKeySet() keySet {
	const slots = 1 << 10
	return keySet{seed: maphash.MakeSeed(), slots: make([]keySlot, slots), shift: 32 - 10}
}

// add inserts key unless it is there, and returns its number and whether
// it was new. It copies the key, so the caller may reuse key's storage.
func (s *keySet) add(key []byte) (int, bool) {
	h := uint32(maphash.Bytes(s.seed, key) >> 32)
	mask := len(s.slots) - 1
	i := int(h >> s.shift)
	for ; s.slots[i].len != 0; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl.hash == h && int(sl.len) == len(key) && bytes.Equal(s.chunks[sl.chunk][sl.off:sl.off+sl.len], key) {
			return int(sl.id), false
		}
	}
	if len(s.chunks) == 0 || len(s.chunks[len(s.chunks)-1])-s.fill < len(key) {
		s.chunks = append(s.chunks, make([]byte, max(keyChunk, len(key))))
		s.fill = 0
	}
	last := len(s.chunks) - 1
	id := s.used
	s.slots[i] = keySlot{hash: h, len: uint32(len(key)), chunk: uint32(last), off: uint32(s.fill), id: uint32(id)}
	s.fill += copy(s.chunks[last][s.fill:], key)
	if s.used++; s.used*4 > len(s.slots)*3 {
		s.grow()
	}
	return id, true
}

// grow doubles the table and re-slots every key by its stored hash.
func (s *keySet) grow() {
	old := s.slots
	s.slots = make([]keySlot, 2*len(old))
	s.shift--
	mask := len(s.slots) - 1
	for _, sl := range old {
		if sl.len == 0 {
			continue
		}
		i := int(sl.hash >> s.shift)
		for s.slots[i].len != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}
