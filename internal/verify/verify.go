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
package verify

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

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

// node is one frontier entry of the BFS.
type node struct {
	snap       statechart.MachineState
	obligation int64 // remaining ticks; -1 = none pending
	parent     *node
	viaEvents  []string
	viaInputs  map[string]int64
	leaf       string
}

// CheckResponse verifies prop on the compiled chart.
func CheckResponse(cc *statechart.Compiled, prop ResponseProperty, opt Options) (Result, error) {
	if prop.Event == "" || prop.Output == "" || prop.Target == nil {
		return Result{}, fmt.Errorf("verify: property needs Event, Output and Target")
	}
	events := cc.EventNames()
	if !contains(events, prop.Event) {
		return Result{}, fmt.Errorf("verify: unknown event %q", prop.Event)
	}
	if !contains(cc.VarNames(statechart.Output), prop.Output) {
		return Result{}, fmt.Errorf("verify: unknown output %q", prop.Output)
	}
	if prop.InState != "" && !contains(cc.StateNames(), prop.InState) {
		return Result{}, fmt.Errorf("verify: unknown state %q", prop.InState)
	}
	if prop.WithinTicks < 0 {
		return Result{}, fmt.Errorf("verify: negative deadline")
	}
	maxVisited := opt.MaxVisited
	if maxVisited <= 0 {
		maxVisited = 200000
	}
	limit := max(cc.MaxTemporalConst()+1, prop.WithinTicks+1)
	eventSubsets, inputCombos, err := stimuli(cc, opt.InputDomains)
	if err != nil {
		return Result{}, err
	}
	rel, err := cone(cc, prop.Output)
	if err != nil {
		return Result{}, err
	}
	m := statechart.NewMachine(cc)
	root := &node{snap: m.Snapshot(), obligation: -1, leaf: m.ActiveState()}
	buf := key(nil, m, -1, limit, rel)
	visited := map[string]struct{}{string(buf): {}}
	frontier := []*node{root}
	res := Result{Property: prop, Visited: 1}

	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, evs := range eventSubsets {
			for _, ins := range inputCombos {
				m.Restore(cur.snap)
				// Trigger condition is evaluated in the pre-step
				// configuration.
				triggered := contains(evs, prop.Event) && (prop.InState == "" || m.InActivePath(prop.InState))
				for name, v := range ins {
					m.SetInput(name, v)
				}
				sr := m.Step(evs...)
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
					if discharged(sr.Writes, prop) {
						ob = -1
					} else if ob == 0 {
						// Deadline expired without the response.
						child := &node{parent: cur, viaEvents: evs, viaInputs: ins, leaf: m.ActiveState()}
						res.Outcome = Violated
						res.Counterexample = rebuild(child)
						return res, nil
					} else {
						ob--
					}
				}
				buf = key(buf, m, ob, limit, rel)
				if _, seen := visited[string(buf)]; seen {
					continue
				}
				visited[string(buf)] = struct{}{}
				res.Visited++
				if res.Visited >= maxVisited {
					res.Outcome = Bounded
					return res, nil
				}
				frontier = append(frontier, &node{
					snap: m.Snapshot(), obligation: ob,
					parent: cur, viaEvents: evs, viaInputs: ins,
					leaf: m.ActiveState(),
				})
			}
		}
	}
	res.Outcome = Holds
	return res, nil
}

// discharged reports whether any output write satisfies the property.
// Writes (not net changes) are checked: a response that is overwritten
// later in the same super-step still occurred as a model-level o-event.
func discharged(writes []statechart.VarChange, prop ResponseProperty) bool {
	for _, ch := range writes {
		if ch.Name == prop.Output && prop.Target(ch.To) {
			return true
		}
	}
	return false
}

// cone resolves the cone of influence of the seed variables to variable
// ids, in declaration order. A seed the chart does not declare is an
// error.
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
		addAction(s.During)
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

// key canonicalises the abstract state into buf's storage: the machine's
// configuration encoding (statechart.Machine.AppendConfig), with active-path
// counters saturated at limit and the cone-of-influence variables rel,
// followed by the obligation remaining (8 bytes). The configuration's
// width is fixed by its leaf, which comes first, so the obligation sits
// at a fixed offset for each leaf and equal keys mean equal abstract
// states.
func key(buf []byte, m *statechart.Machine, obligation, limit int64, rel []int) []byte {
	buf = m.AppendConfig(buf[:0], limit, rel)
	return binary.LittleEndian.AppendUint64(buf, uint64(obligation))
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// stimuli returns the event subsets and input combinations every state's
// successors are generated from, in exploration order. It first checks
// that each domain key is an input variable and that the successor count
// stays within maxSuccessors.
func stimuli(cc *statechart.Compiled, domains map[string][]int64) ([][]string, []map[string]int64, error) {
	events := cc.EventNames()
	inputs := cc.VarNames(statechart.Input)
	var stray []string
	for name := range domains {
		if !contains(inputs, name) {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		return nil, nil, fmt.Errorf("verify: input domain for %q, which is not an input variable", slices.Min(stray))
	}
	if !withinSuccessorBound(len(events), inputs, domains) {
		return nil, nil, fmt.Errorf("verify: more than %d successors per state (%d events, %d input variables)",
			maxSuccessors, len(events), len(inputs))
	}
	return enumerateSubsets(events), enumerateInputs(inputs, domains), nil
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

// enumerateSubsets returns all subsets of events (the empty subset
// first). The statechart compiler does not bound the number of events;
// callers check the count with withinSuccessorBound first.
func enumerateSubsets(events []string) [][]string {
	n := len(events)
	out := make([][]string, 0, 1<<uint(n))
	for mask := 0; mask < 1<<uint(n); mask++ {
		var sub []string
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, events[i])
			}
		}
		out = append(out, sub)
	}
	return out
}

// enumerateInputs returns every combination of input-variable values.
func enumerateInputs(vars []string, domains map[string][]int64) []map[string]int64 {
	combos := []map[string]int64{{}}
	for _, v := range vars {
		dom := domains[v]
		if len(dom) == 0 {
			dom = []int64{0, 1}
		}
		var next []map[string]int64
		for _, c := range combos {
			for _, val := range dom {
				m := make(map[string]int64, len(c)+1)
				for k, x := range c {
					m[k] = x
				}
				m[v] = val
				next = append(next, m)
			}
		}
		combos = next
	}
	return combos
}

// InvariantProperty is a safety property: the predicate must hold in
// every reachable configuration (AG pred). The predicate sees the active
// leaf state name and the full valuation.
type InvariantProperty struct {
	Name string
	// Holds returns true when the configuration is acceptable.
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
	eventSubsets, inputCombos, err := stimuli(cc, opt.InputDomains)
	if err != nil {
		return Result{}, err
	}

	res := Result{Property: ResponseProperty{Name: prop.Name}, Visited: 1}
	m := statechart.NewMachine(cc)
	if !prop.Holds(m.ActiveState(), m.Vars()) {
		res.Outcome = Violated
		return res, nil
	}
	root := &node{snap: m.Snapshot(), obligation: -1, leaf: m.ActiveState()}
	buf := key(nil, m, -1, limit, rel)
	visited := map[string]struct{}{string(buf): {}}
	frontier := []*node{root}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, evs := range eventSubsets {
			for _, ins := range inputCombos {
				m.Restore(cur.snap)
				for name, v := range ins {
					m.SetInput(name, v)
				}
				sr := m.Step(evs...)
				if sr.Err != nil {
					return res, fmt.Errorf("verify: model error during exploration: %w", sr.Err)
				}
				if !prop.Holds(m.ActiveState(), m.Vars()) {
					child := &node{parent: cur, viaEvents: evs, viaInputs: ins, leaf: m.ActiveState()}
					res.Outcome = Violated
					res.Counterexample = rebuild(child)
					return res, nil
				}
				buf = key(buf, m, -1, limit, rel)
				if _, seen := visited[string(buf)]; seen {
					continue
				}
				visited[string(buf)] = struct{}{}
				res.Visited++
				if res.Visited >= maxVisited {
					res.Outcome = Bounded
					return res, nil
				}
				frontier = append(frontier, &node{
					snap: m.Snapshot(), obligation: -1,
					parent: cur, viaEvents: evs, viaInputs: ins, leaf: m.ActiveState(),
				})
			}
		}
	}
	res.Outcome = Holds
	return res, nil
}

// rebuild reconstructs the stimulus path from parent pointers; the root
// node (parent == nil) carries no stimulus and is skipped.
func rebuild(n *node) []CexStep {
	var rev []*node
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur)
	}
	out := make([]CexStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, CexStep{Events: rev[i].viaEvents, Inputs: rev[i].viaInputs, State: rev[i].leaf})
	}
	return out
}
