package verify

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"rmtest/internal/interp"
	"rmtest/internal/statechart"
)

// The oracle checker is the exploration CheckResponse and CheckInvariant
// perform, run on the chart interpreter (internal/interp) instead of the
// generated code: it steps interp.Machine, keys its visited set with the
// text key stringKey, tests InState on ActivePath, and enumerates the
// stimuli as name lists and maps. It shares neither a chart runtime nor
// a state encoding with the production checker, so where the two agree,
// the production checker explores the chart's semantics.

// stringKey is the checker's former state key: the active leaf's name,
// the saturated active-path counters, the relevant variables (names, in
// sorted order) with their values and the obligation, as text.
func stringKey(m *interp.Machine, obligation int64, cap int64, names []string) string {
	b := []byte(m.ActiveState())
	b = append(b, '|')
	for _, t := range m.ActiveTicks() {
		b = strconv.AppendInt(b, min(t, cap), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	for _, n := range names {
		b = append(b, n...)
		b = append(b, '=')
		b = strconv.AppendInt(b, m.Get(n), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	return string(strconv.AppendInt(b, obligation, 10))
}

// relevantNames returns the cone of influence of the seed variables by
// name, sorted.
func relevantNames(cc *statechart.Compiled, seeds ...string) []string {
	var names []string
	for n := range relevantVars(cc, seeds...) {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// oracleNode is one frontier entry of the oracle's BFS.
type oracleNode struct {
	snap       interp.MachineState
	obligation int64
	parent     *oracleNode
	viaEvents  []string
	viaInputs  map[string]int64
	leaf       string
}

// oracleStimuli validates the stimuli as the checkers do and enumerates
// them in exploration order.
func oracleStimuli(cc *statechart.Compiled, domains map[string][]int64) ([][]string, []map[string]int64, error) {
	if _, err := newStimuli(cc, domains); err != nil {
		return nil, nil, err
	}
	return enumerateSubsets(cc.EventNames()), enumerateInputs(cc.VarNames(statechart.Input), domains), nil
}

// enumerateSubsets returns all subsets of events, the empty subset first.
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

// oracleResponse is CheckResponse on the interpreter.
func oracleResponse(cc *statechart.Compiled, prop ResponseProperty, opt Options) (Result, error) {
	if err := checkResponseProperty(cc, prop); err != nil {
		return Result{}, err
	}
	maxVisited := opt.MaxVisited
	if maxVisited <= 0 {
		maxVisited = 200000
	}
	limit := max(cc.MaxTemporalConst()+1, prop.WithinTicks+1)
	eventSubsets, inputCombos, err := oracleStimuli(cc, opt.InputDomains)
	if err != nil {
		return Result{}, err
	}
	if _, err := cone(cc, prop.Output); err != nil {
		return Result{}, err
	}
	relevant := relevantNames(cc, prop.Output)
	m := interp.NewMachine(cc)
	root := &oracleNode{snap: m.Snapshot(), obligation: -1, leaf: m.ActiveState()}
	visited := map[string]bool{stringKey(m, -1, limit, relevant): true}
	frontier := []*oracleNode{root}
	res := Result{Property: prop, Visited: 1}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, evs := range eventSubsets {
			for _, ins := range inputCombos {
				m.Restore(cur.snap)
				triggered := slices.Contains(evs, prop.Event) &&
					(prop.InState == "" || slices.Contains(m.ActivePath(), prop.InState))
				for name, v := range ins {
					m.SetInput(name, v)
				}
				sr := m.Step(evs...)
				res.Steps++
				if sr.Err != nil {
					return res, fmt.Errorf("oracle: model error during exploration: %w", sr.Err)
				}
				ob := cur.obligation
				if triggered && ob < 0 {
					ob = prop.WithinTicks
				}
				if ob >= 0 {
					if slices.ContainsFunc(sr.Writes, func(w statechart.VarChange) bool {
						return w.Name == prop.Output && prop.Target(w.To)
					}) {
						ob = -1
					} else if ob == 0 {
						child := &oracleNode{parent: cur, viaEvents: evs, viaInputs: ins, leaf: m.ActiveState()}
						res.Outcome = Violated
						res.Counterexample = oracleCounterexample(child)
						return res, nil
					} else {
						ob--
					}
				}
				k := stringKey(m, ob, limit, relevant)
				if visited[k] {
					continue
				}
				visited[k] = true
				res.Visited++
				if res.Visited >= maxVisited {
					res.Outcome = Bounded
					return res, nil
				}
				frontier = append(frontier, &oracleNode{
					snap: m.Snapshot(), obligation: ob,
					parent: cur, viaEvents: evs, viaInputs: ins, leaf: m.ActiveState(),
				})
			}
		}
	}
	res.Outcome = Holds
	return res, nil
}

// oracleInvariant is CheckInvariant on the interpreter.
func oracleInvariant(cc *statechart.Compiled, prop InvariantProperty, opt Options) (Result, error) {
	if prop.Holds == nil {
		return Result{}, fmt.Errorf("oracle: invariant needs a predicate")
	}
	maxVisited := opt.MaxVisited
	if maxVisited <= 0 {
		maxVisited = 200000
	}
	limit := cc.MaxTemporalConst() + 1
	if _, err := cone(cc, prop.Reads...); err != nil {
		return Result{}, err
	}
	relevant := relevantNames(cc, prop.Reads...)
	eventSubsets, inputCombos, err := oracleStimuli(cc, opt.InputDomains)
	if err != nil {
		return Result{}, err
	}
	res := Result{Property: ResponseProperty{Name: prop.Name}, Visited: 1}
	m := interp.NewMachine(cc)
	if !prop.Holds(m.ActiveState(), m.Vars()) {
		res.Outcome = Violated
		return res, nil
	}
	root := &oracleNode{snap: m.Snapshot(), obligation: -1, leaf: m.ActiveState()}
	visited := map[string]bool{stringKey(m, -1, limit, relevant): true}
	frontier := []*oracleNode{root}
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
				res.Steps++
				if sr.Err != nil {
					return res, fmt.Errorf("oracle: model error during exploration: %w", sr.Err)
				}
				if !prop.Holds(m.ActiveState(), m.Vars()) {
					child := &oracleNode{parent: cur, viaEvents: evs, viaInputs: ins, leaf: m.ActiveState()}
					res.Outcome = Violated
					res.Counterexample = oracleCounterexample(child)
					return res, nil
				}
				k := stringKey(m, -1, limit, relevant)
				if visited[k] {
					continue
				}
				visited[k] = true
				res.Visited++
				if res.Visited >= maxVisited {
					res.Outcome = Bounded
					return res, nil
				}
				frontier = append(frontier, &oracleNode{
					snap: m.Snapshot(), obligation: -1,
					parent: cur, viaEvents: evs, viaInputs: ins, leaf: m.ActiveState(),
				})
			}
		}
	}
	res.Outcome = Holds
	return res, nil
}

// oracleCounterexample reconstructs the stimulus path from parent
// pointers; the root node carries no stimulus and is skipped.
func oracleCounterexample(n *oracleNode) []CexStep {
	var rev []*oracleNode
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur)
	}
	out := make([]CexStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, CexStep{Events: rev[i].viaEvents, Inputs: rev[i].viaInputs, State: rev[i].leaf})
	}
	return out
}
