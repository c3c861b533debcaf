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
// from those steps, each keyed straight from the state's own row and the
// step's successor block. The first is stepped once per class of event
// subsets its step can tell apart: a subset that agrees with one already
// stepped from the state, on the same input combination, on every event
// that step tested (codegen.Exec.Tested) would repeat it exactly, so it
// is skipped. The states visited, their order and every result are those
// of stepping every subset from every state. A successor already visited
// costs its key and one lookup in a set of fixed-width word keys; a new
// one gets a fixed-size record, and an executor row only until it is
// expanded. No state is a heap object.
//
// The checker steps the program the chart compiles to (codegen.Generate)
// on codegen.Exec with a nil ExecEnv and listener: the chart runtime the
// platform runs, with no cost charged. Its tests run the same exploration
// on the chart interpreter (internal/interp), with the former text state
// key, on random charts and properties, and require identical results.
package verify

import (
	"fmt"
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

// record is how the search reached a state: the state it was expanded
// from and the stimulus that led from there. States are numbered in the
// order they are found, which is the number of their key in the visited
// set, and record n is state n's. A counterexample's events, inputs and
// leaves are rebuilt from the records and keys only when a violation is
// found.
type record struct {
	parent        int   // the number of the state reached from; -1 for the root
	subset, combo int32 // the event subset and input combination, see stimuli
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
// It numbers the states it finds by their keys in the visited set and
// keeps a record of each; only the states not yet expanded keep an
// executor row, in the queue. Neither holds a heap object per state.
type explorer struct {
	exec   *codegen.Exec
	states []codegen.StateRow // the program's state table
	stim   stimuli
	masks  []uint64 // subset index -> the program's event mask
	bits   []int    // program event id -> its bit in a subset index
	inputs []int    // the program's slots of stim.inputs
	limit  int64
	rel    []int
	// visited keys the states found (rowKey, successorKey), and records
	// holds their records by the same numbers. queue holds the states
	// not yet expanded, each with its row, first found first; row is the
	// row of the state being expanded, and key the one key being built.
	visited wordSet
	records chunks[record]
	queue   rowQueue
	row     []int64
	key     []uint64
	// covered marks, for the state being expanded, the stimuli (combo c,
	// subset k at c*len(masks)+k) that would repeat a step already run.
	covered []bool
	// classes keys the step classes (codegen.Exec.AppendStepClass) met so
	// far, padded to its width in classKey. Class n's entries are
	// entries[starts[n]:starts[n+1]]: a class is complete before another
	// of its states is expanded, because its first state's expansion
	// steps every stimulus or ends the search. Entry j's successor block
	// is succ[j*RowLen:(j+1)*RowLen]: a row whose entry ticks are replaced
	// by 1 for each state the step entered and 0 for the others, and whose
	// tick is not read.
	classes  wordSet
	classKey []uint64
	starts   []int32
	entries  []classEntry
	succ     []int64
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
// configuration, and records that configuration as state 0, keyed and
// queued. The checks call it only once their arguments have passed
// verify's own tests, so a chart the checker cannot explore is rejected
// with verify's error, not the code generator's.
func newExplorer(cc *statechart.Compiled, stim stimuli, rel []int, limit int64) (*explorer, error) {
	prog, err := codegen.Generate(cc)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	x := &explorer{
		exec:     codegen.NewExec(prog, codegen.ZeroCostModel(), nil, nil),
		states:   prog.States,
		stim:     stim,
		masks:    make([]uint64, 1<<len(stim.events)),
		bits:     make([]int, len(prog.Events)),
		limit:    limit,
		rel:      rel,
		records:  newChunks[record](1, recordChunk),
		covered:  make([]bool, stim.combos<<len(stim.events)),
		entryOff: 2 + len(prog.Vars),
		inState:  -1,
	}
	depth := 0
	for sid := range prog.States {
		d := 0
		for s := sid; s >= 0; s = prog.States[s].Parent {
			d++
		}
		depth = max(depth, d)
	}
	// A key is the leaf, a tick count per active-path state, the cone and
	// the obligation; a step class is the leaf, every variable, and at
	// most one bit per active-path state and per transition.
	x.visited = newWordSet(1+depth+len(x.rel)+1, keyChunk)
	x.key = make([]uint64, x.visited.keys.width)
	x.classes = newWordSet(1+len(prog.Vars)+(len(prog.States)+len(prog.Trans)+63)/64, classCap)
	x.classKey = make([]uint64, x.classes.keys.width)
	w := x.exec.RowLen()
	x.queue = newRowQueue(w)
	x.row = make([]int64, w)
	// A chart's classes are few beside its states: gpca's 12,003 states
	// fall in 5 classes with 27 entries.
	x.starts = append(make([]int32, 0, classCap), 0)
	x.entries = make([]classEntry, 0, classCap)
	x.succ = make([]int64, 0, classCap*w)
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
	x.exec.AppendRow(x.row[:0])
	x.visited.add(x.rowKey(x.row, -1))
	x.records.add()[0] = record{parent: -1}
	copy(x.queue.push(-1), x.row)
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

// rowKey writes to x.key the key of the state whose executor row is row,
// carrying obligation ob, and returns it. Its words are, in order:
//   - the active leaf's id;
//   - each active-path state's tick count, leaf first, saturated at
//     limit;
//   - the cone-of-influence variables, by id;
//   - the obligation;
//
// then zeros up to the visited set's width. The leaf fixes the path
// length, so two keys with the same leaf have the same fields at the same
// words, and two with different leaves differ in the first word: equal
// keys mean equal abstract states, padding included.
func (x *explorer) rowKey(row []int64, ob int64) []uint64 {
	k := x.key[:1]
	k[0] = uint64(row[0])
	for sid := int(row[0]); sid >= 0; sid = x.states[sid].Parent {
		k = append(k, uint64(min(row[1]-row[x.entryOff+sid], x.limit)))
	}
	for _, id := range x.rel {
		k = append(k, uint64(row[2+id]))
	}
	k = append(k, uint64(ob))
	clear(x.key[len(k):])
	return x.key
}

// successorKey writes to x.key the key rowKey gives the successor of row
// on successor block blk, carrying obligation ob, without building the
// successor's row, and returns it. The block gives the leaf and the
// variables. An active-path state the step entered has been in for 1
// tick; any other has been in for row's tick plus one less its entry tick
// in row. Both are saturated at limit.
func (x *explorer) successorKey(row, blk []int64, ob int64) []uint64 {
	k := x.key[:1]
	k[0] = uint64(blk[0])
	tick := row[1] + 1
	for sid := int(blk[0]); sid >= 0; sid = x.states[sid].Parent {
		c := int64(1) // entered by the step; limit is at least 1
		if blk[x.entryOff+sid] == 0 {
			c = min(tick-row[x.entryOff+sid], x.limit)
		}
		k = append(k, uint64(c))
	}
	for _, id := range x.rel {
		k = append(k, uint64(blk[2+id]))
	}
	k = append(k, uint64(ob))
	clear(x.key[len(k):])
	return x.key
}

// stepClass writes the executor's step class to x.classKey, padded with
// zeros to the class set's width, and returns it.
func (x *explorer) stepClass() []uint64 {
	clear(x.classKey[len(x.exec.AppendStepClass(x.classKey[:0])):])
	return x.classKey
}

// explore searches breadth-first from the queued root, which the caller
// has judged, until the property is violated, res.Visited reaches
// maxVisited, or no state is left to expand; it sets res.Outcome, and
// res.Counterexample on a violation. The queue is first found, first
// expanded, so the state expanded i-th is state i.
//
// A state's successors come from its step class
// (codegen.Exec.AppendStepClass). The first state of a class steps it
// (fill); every later state of the class takes its successors from the
// class's entries, in the same order, keyed straight from its row and
// each entry's block (successorKey). Two states of one class step alike,
// so each key is exactly the key a step would give, and the judgements
// and tested bits are the same. The class holds the leaf, so it fixes
// whether the state arms the trigger too. The states visited, their order
// and the outcome are those of stepping every state; only res.Steps, the
// steps run, falls.
func (x *explorer) explore(res *Result, maxVisited int) error {
	e := x.exec
	for i := 0; !x.queue.empty(); i++ {
		ob := x.queue.pop(x.row)
		e.LoadRow(x.row)
		// The trigger is judged in the pre-step configuration; no
		// stimulus changes its active path.
		armed := x.trigger != 0 && (x.inState < 0 || e.InActivePath(x.inState))
		cls, fresh := x.classes.add(x.stepClass())
		if fresh {
			if done, err := x.fill(res, maxVisited, i, ob, armed); done || err != nil {
				return err
			}
			x.starts = append(x.starts, int32(len(x.entries)))
			continue
		}
		for j := int(x.starts[cls]); j < int(x.starts[cls+1]); j++ {
			if x.arrive(res, maxVisited, i, j, ob, armed) {
				return nil
			}
		}
	}
	res.Outcome = Holds
	return nil
}

// fill steps state i, whose row is x.row, the first of its class, and
// keeps each stimulus it steps as an entry of the class, judging each
// successor as it goes, so a check that ends inside it steps no more than
// it must. It reports whether the search is over.
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
func (x *explorer) fill(res *Result, maxVisited, i int, ob int64, armed bool) (bool, error) {
	e := x.exec
	n := len(x.masks)
	clear(x.covered)
	for k := range n {
		for c := range x.stim.combos {
			if x.covered[c*n+k] {
				continue
			}
			e.LoadRow(x.row)
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
			x.entries = append(x.entries, classEntry{subset: int32(k), combo: int32(c), judged: x.judge()})
			x.keep(x.row[1])
			if x.arrive(res, maxVisited, i, len(x.entries)-1, ob, armed) {
				return true, nil
			}
		}
	}
	return false, nil
}

// keep appends the executor's configuration, just stepped from tick, to
// succ as a successor block: a state whose entry tick is tick was entered
// by the step. The step leaves every other entry tick below tick, except
// from the root, whose entry ticks are all 0 at tick 0. There a state the
// step did not enter is marked entered too, which the root's own
// successor does not notice (the entry tick stays 0, the root's tick, and
// the state has been in for 1 tick); and only the root has a state in for
// no ticks, so its class holds it alone and its block is never replayed.
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

// block returns class entry j's successor block.
func (x *explorer) block(j int) []int64 {
	w := len(x.row)
	return x.succ[j*w : (j+1)*w]
}

// rebuild writes to dst the row of row's successor on successor block
// blk: the block's leaf and variables, row's tick plus one, and row's
// tick as the entry tick of each state the block's step entered, every
// other entry tick as in row.
func (x *explorer) rebuild(dst, row, blk []int64) {
	copy(dst[:x.entryOff], blk)
	dst[1] = row[1] + 1
	for s := x.entryOff; s < len(row); s++ {
		if blk[s] != 0 {
			dst[s] = row[1]
		} else {
			dst[s] = row[s]
		}
	}
}

// arrive judges the successor of state i, whose row is x.row and which
// carries obligation ob, on class entry j, keys it from the row and the
// entry's block, and if the key is new records the successor and queues
// its row, rebuilt straight into the queue. It reports whether the
// search is over: the property is violated, or res.Visited reached
// maxVisited. A successor already visited costs its key and one lookup.
func (x *explorer) arrive(res *Result, maxVisited, i, j int, ob int64, armed bool) bool {
	en := x.entries[j]
	next, violated := x.decide(ob, armed && int(en.subset)&x.trigger != 0, en.judged)
	if violated {
		res.Outcome = Violated
		res.Counterexample = x.counterexample(i, j)
		return true
	}
	blk := x.block(j)
	if _, fresh := x.visited.add(x.successorKey(x.row, blk, next)); !fresh {
		return false
	}
	res.Visited++
	if res.Visited >= maxVisited {
		res.Outcome = Bounded
		return true
	}
	x.records.add()[0] = record{parent: i, subset: en.subset, combo: en.combo}
	x.rebuild(x.queue.push(next), x.row, blk)
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

// counterexample rebuilds the stimulus path to the successor of state i
// on class entry j. Each state's leaf is the first word of its key, and
// the successor's the first value of the entry's block.
func (x *explorer) counterexample(i, j int) []CexStep {
	en := x.entries[j]
	out := []CexStep{x.stim.cexStep(int(en.subset), int(en.combo), x.states[x.block(j)[0]].Name)}
	for r := x.records.at(i)[0]; r.parent >= 0; i, r = r.parent, x.records.at(r.parent)[0] {
		out = append(out, x.stim.cexStep(int(r.subset), int(r.combo), x.states[x.visited.keys.at(i)[0]].Name))
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

// classCap is the number of classes and entries the checker makes room
// for up front; more grow the slices.
const classCap = 64

// keyChunk and recordChunk are the numbers of keys and records a chunk
// holds: 2,048 of gpca's 4-word keys are 64 KB, and so are 4,096 records.
const (
	keyChunk    = 1 << 11
	recordChunk = 1 << 12
)

// chunks holds numbered items of width values each in chunks of a power
// of two items that are never reallocated: adding an item allocates at
// most a new chunk, and copies nothing.
type chunks[T any] struct {
	width int
	shift uint // log2 of the items per chunk
	list  [][]T
	n     int // items added
}

// newChunks returns an empty store of items of width values, perChunk,
// a power of two, to a chunk.
func newChunks[T any](width, perChunk int) chunks[T] {
	return chunks[T]{width: width, shift: uint(bits.TrailingZeros(uint(perChunk)))}
}

// add appends an item and returns its storage, zeroed.
func (c *chunks[T]) add() []T {
	if c.n>>c.shift == len(c.list) {
		c.list = append(c.list, make([]T, c.width<<c.shift))
	}
	c.n++
	return c.at(c.n - 1)
}

// at returns item i's storage.
func (c *chunks[T]) at(i int) []T {
	off := (i & (1<<c.shift - 1)) * c.width
	return c.list[i>>c.shift][off : off+c.width]
}

// wordSet numbers distinct keys of a fixed number of words in the order
// they are added: the visited set and the step classes are each one. The
// checker pads a key shorter than the width with zeros; its first word,
// the leaf, fixes where its fields end, so padding never makes two keys
// equal. The keys sit in chunks by number, never moved, and an
// open-addressing table of 8-byte slots with no pointers locates them,
// so the garbage collector scans neither and growing copies no key. The
// hash is a fixed function of the words, with no seed: only membership
// and the numbers are observed, so neither the hash nor the slot order
// reaches an output.
type wordSet struct {
	keys  chunks[uint64]
	slots []wordSlot // a power of two long, at most three quarters full
	shift uint       // 32 - log2(len(slots)): a hash's top bits pick its slot
}

// wordSlot locates one key: num is its number plus one, so a zero slot
// is empty, and hash is the top half of its hash.
type wordSlot struct{ hash, num uint32 }

// newWordSet returns an empty set of keys of width words, stored
// perChunk, a power of two, to a chunk, with room for as many before the
// table first grows.
func newWordSet(width, perChunk int) wordSet {
	n := 2 * perChunk
	return wordSet{
		keys:  newChunks[uint64](width, perChunk),
		slots: make([]wordSlot, n),
		shift: uint(32 - bits.TrailingZeros(uint(n))),
	}
}

// add inserts key, of the set's width, unless it is there, and returns
// its number and whether it was new. It copies the key, so the caller may
// reuse key's storage. The hash folds the words in one at a time, each
// rotated-and-xored state times an odd constant, so every bit of a word
// reaches the top bits that pick the slot.
func (s *wordSet) add(key []uint64) (int, bool) {
	var h uint64
	for _, w := range key {
		h = (bits.RotateLeft64(h, 5) ^ w) * 0x517cc1b727220a95
	}
	top := uint32(h >> 32)
	mask := len(s.slots) - 1
	i := int(top >> s.shift)
	for ; s.slots[i].num != 0; i = (i + 1) & mask {
		if sl := s.slots[i]; sl.hash == top && slices.Equal(s.keys.at(int(sl.num-1)), key) {
			return int(sl.num - 1), false
		}
	}
	n := s.keys.n
	copy(s.keys.add(), key)
	s.slots[i] = wordSlot{hash: top, num: uint32(n + 1)}
	if (n+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	return n, true
}

// grow doubles the table and re-slots every key by its stored hash.
func (s *wordSet) grow() {
	old := s.slots
	s.slots = make([]wordSlot, 2*len(old))
	s.shift--
	mask := len(s.slots) - 1
	for _, sl := range old {
		if sl.num == 0 {
			continue
		}
		i := int(sl.hash >> s.shift)
		for s.slots[i].num != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// rowQueue holds the states found but not yet expanded, first found
// first, as entries of a state's obligation followed by its executor
// row. Expanded entries are dropped by moving the queued ones down when
// the buffer is full, so its size follows the breadth-first frontier,
// not the states found.
type rowQueue struct {
	width int     // 1 + the row length
	buf   []int64 // the queued entries from head on
	head  int
}

func newRowQueue(rowLen int) rowQueue {
	return rowQueue{width: 1 + rowLen, buf: make([]int64, 0, 16*(1+rowLen))}
}

// empty reports whether no state is queued.
func (q *rowQueue) empty() bool { return q.head == len(q.buf) }

// push queues a state carrying obligation ob and returns the storage its
// row is to be written to, which holds stale values until it is.
func (q *rowQueue) push(ob int64) []int64 {
	if len(q.buf)+q.width > cap(q.buf) && 2*q.head >= len(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	n := len(q.buf)
	q.buf = slices.Grow(q.buf, q.width)[:n+q.width]
	q.buf[n] = ob
	return q.buf[n+1:]
}

// pop removes the first state queued, copies its row to row, and returns
// its obligation.
func (q *rowQueue) pop(row []int64) int64 {
	e := q.buf[q.head : q.head+q.width]
	q.head += q.width
	copy(row, e[1:])
	return e[0]
}
