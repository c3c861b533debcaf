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
// The checker steps the program the chart compiles to (codegen.Generate)
// on codegen.Exec with a nil ExecEnv and listener: the chart runtime the
// platform runs, with no cost charged. Its tests run the same exploration
// on the chart interpreter (internal/interp), with the former text state
// key, on random charts and properties, and require identical results.
package verify

import (
	"encoding/binary"
	"fmt"
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

// node is one frontier entry of the BFS. It names the stimulus that
// reached it by index; a counterexample's events, inputs and states are
// rebuilt from the indices and snapshots only when a violation is found.
type node struct {
	snap       codegen.ExecState
	obligation int64 // remaining ticks; -1 = none pending
	parent     *node
	subset     int // index of the event subset, see stimuli
	combo      int // index of the input combination, see stimuli
}

// explorer steps the chart's generated program through the state space:
// it applies each stimulus to a restored state and keys the result in
// the visited set.
type explorer struct {
	exec    *codegen.Exec
	stim    stimuli
	masks   []uint64 // subset index -> the program's event mask
	inputs  []int    // the program's slots of stim.inputs
	limit   int64
	rel     []int
	buf     []byte
	visited map[string]struct{}
}

// newExplorer generates the chart's program, runs it from its initial
// configuration, and marks that configuration visited. The checks call it
// only once their arguments have passed verify's own tests, so a chart
// the checker cannot explore is rejected with verify's error, not the
// code generator's.
func newExplorer(cc *statechart.Compiled, stim stimuli, rel []int, limit int64) (*explorer, error) {
	prog, err := codegen.Generate(cc)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	x := &explorer{
		exec:    codegen.NewExec(prog, codegen.ZeroCostModel(), nil, nil),
		stim:    stim,
		masks:   make([]uint64, 1<<len(stim.events)),
		limit:   limit,
		rel:     rel,
		visited: map[string]struct{}{},
	}
	x.exec.RecordWrites()
	for k := range x.masks {
		for i, name := range stim.events {
			if k&(1<<i) != 0 {
				id, _ := prog.EventID(name)
				x.masks[k] |= 1 << id
			}
		}
	}
	for _, name := range stim.inputs {
		id, _ := prog.VarID(name)
		x.inputs = append(x.inputs, id)
	}
	x.visit(-1)
	return x, nil
}

// step runs one tick on event subset k and input combination c.
func (x *explorer) step(k, c int) codegen.StepResult {
	for j, v := range x.stim.combo(c) {
		x.exec.SetInputID(x.inputs[j], v)
	}
	return x.exec.Step(x.masks[k])
}

// visit keys the executor's configuration with the obligation remaining
// and reports whether the key is new, adding it if so.
func (x *explorer) visit(obligation int64) bool {
	x.buf = key(x.buf, x.exec, obligation, x.limit, x.rel)
	if _, seen := x.visited[string(x.buf)]; seen {
		return false
	}
	x.visited[string(x.buf)] = struct{}{}
	return true
}

// counterexample rebuilds the stimulus path to the executor's current
// configuration, reached from n on subset k and combination c. It
// restores each ancestor's snapshot to name its leaf, so exploration
// ends with it.
func (x *explorer) counterexample(n *node, k, c int) []CexStep {
	out := []CexStep{x.stim.cexStep(k, c, x.exec.ActiveState())}
	for ; n.parent != nil; n = n.parent {
		x.exec.Restore(n.snap)
		out = append(out, x.stim.cexStep(n.subset, n.combo, x.exec.ActiveState()))
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
	trigger := uint64(1) << ev
	out, _ := prog.VarID(prop.Output)
	inState := -1
	if prop.InState != "" {
		inState, _ = prog.StateID(prop.InState)
	}
	res := Result{Property: prop, Visited: 1}
	frontier := []*node{{snap: e.Snapshot(), obligation: -1}}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for k, mask := range x.masks {
			for c := range stim.combos {
				// The trigger condition is evaluated in the pre-step
				// configuration.
				e.Restore(cur.snap)
				triggered := mask&trigger != 0 && (inState < 0 || e.InActivePath(inState))
				sr := x.step(k, c)
				if sr.Err != nil {
					return res, fmt.Errorf("verify: model error during exploration: %w", sr.Err)
				}
				// Only the oldest pending obligation is tracked, which is
				// sound and complete for this property class: a matching
				// output write discharges every pending obligation at
				// once (younger triggers see the same response with a
				// smaller delay), so the oldest obligation is always the
				// binding one.
				ob := cur.obligation
				if triggered && ob < 0 {
					ob = prop.WithinTicks
				}
				if ob >= 0 {
					if discharged(e.Writes(), out, prop.Target) {
						ob = -1
					} else if ob == 0 {
						// Deadline expired without the response.
						res.Outcome = Violated
						res.Counterexample = x.counterexample(cur, k, c)
						return res, nil
					} else {
						ob--
					}
				}
				if !x.visit(ob) {
					continue
				}
				res.Visited++
				if res.Visited >= maxVisited {
					res.Outcome = Bounded
					return res, nil
				}
				frontier = append(frontier, &node{
					snap: e.Snapshot(), obligation: ob, parent: cur, subset: k, combo: c,
				})
			}
		}
	}
	res.Outcome = Holds
	return res, nil
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
	// Holds returns true when the configuration is acceptable. vars is
	// the checker's one map, refilled for every configuration, so it is
	// valid only during the call: a predicate that keeps the valuation
	// copies it.
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
	frontier := []*node{{snap: e.Snapshot(), obligation: -1}}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for k := range x.masks {
			for c := range stim.combos {
				e.Restore(cur.snap)
				sr := x.step(k, c)
				if sr.Err != nil {
					return res, fmt.Errorf("verify: model error during exploration: %w", sr.Err)
				}
				e.FillVars(vars)
				if !prop.Holds(e.ActiveState(), vars) {
					res.Outcome = Violated
					res.Counterexample = x.counterexample(cur, k, c)
					return res, nil
				}
				if !x.visit(-1) {
					continue
				}
				res.Visited++
				if res.Visited >= maxVisited {
					res.Outcome = Bounded
					return res, nil
				}
				frontier = append(frontier, &node{
					snap: e.Snapshot(), obligation: -1, parent: cur, subset: k, combo: c,
				})
			}
		}
	}
	res.Outcome = Holds
	return res, nil
}
