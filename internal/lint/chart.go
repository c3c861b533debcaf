package lint

import (
	"math"
	"strings"
	"time"

	"rmtest/internal/codegen"
	"rmtest/internal/statechart"
)

// ---- shared structural helpers over the generated tables ----

// childrenOf returns the child-state ids of sid (lazily built).
func (a *analysis) childrenOf(sid int) []int {
	if a.childIDs == nil {
		a.childIDs = make([][]int, len(a.prog.States))
		for i := range a.prog.States {
			if p := a.prog.States[i].Parent; p >= 0 && p < len(a.prog.States) {
				a.childIDs[p] = append(a.childIDs[p], i)
			}
		}
	}
	return a.childIDs[sid]
}

// scanStates returns sid and its ancestors, leaf first — the states whose
// transitions the runtime scans while sid is the active leaf.
func (a *analysis) scanStates(sid int) []int {
	var out []int
	for s := sid; s >= 0 && len(out) <= len(a.prog.States); s = a.prog.States[s].Parent {
		out = append(out, s)
	}
	return out
}

// afterLeaf returns the leaf the configuration settles on after entering
// sid: the default descent down Initial children. On malformed tables
// whose initial links cycle it stops after len(States) steps.
func (a *analysis) afterLeaf(sid int) int {
	for n := 0; n < len(a.prog.States) && a.prog.States[sid].Initial >= 0; n++ {
		sid = a.prog.States[sid].Initial
	}
	return sid
}

// neverEnabled reports a trigger that no tick count can satisfy.
func neverEnabled(tr codegen.TrigCode) bool {
	switch tr.Kind {
	case statechart.TrigBefore:
		return tr.N <= 0
	case statechart.TrigAt:
		return tr.N < 0
	}
	return false
}

// instantCapable reports a trigger that is satisfied in a freshly entered
// state (ticks-in-state == 0), so the transition can fire within the same
// step's super-step chain.
func instantCapable(tr codegen.TrigCode) bool {
	switch tr.Kind {
	case statechart.TrigNone:
		return true
	case statechart.TrigAfter:
		return tr.N <= 0
	case statechart.TrigBefore:
		return tr.N >= 1
	case statechart.TrigAt:
		return tr.N == 0
	}
	return false
}

// ---- reachability ----

// checkReachability over-approximates the reachable configuration set:
// starting from the initial descent, any transition with a satisfiable
// guard from a reachable state marks its target (and the target's entry
// descent) reachable. States and transitions outside the fixpoint can
// never execute.
func (a *analysis) checkReachability() {
	n := len(a.prog.States)
	a.reachable = make([]bool, n)
	var work []int
	mark := func(sid int) {
		if sid >= 0 && sid < n && !a.reachable[sid] {
			a.reachable[sid] = true
			work = append(work, sid)
		}
	}
	var enter func(sid, depth int)
	enter = func(sid, depth int) {
		if sid < 0 || sid >= n || depth > n {
			return
		}
		for p := sid; p >= 0; p = a.prog.States[p].Parent {
			mark(p)
		}
		if s := &a.prog.States[sid]; s.Initial >= 0 {
			enter(s.Initial, depth+1)
		}
	}
	if n > 0 {
		enter(a.prog.InitState, 0)
	}
	for len(work) > 0 {
		sid := work[len(work)-1]
		work = work[:len(work)-1]
		for _, tid := range a.prog.States[sid].Trans {
			t := &a.prog.Trans[tid]
			if neverEnabled(t.Trig) || !a.guardSatisfiable(t) {
				continue
			}
			enter(t.To, 0)
		}
	}
	for i := range a.prog.States {
		if !a.reachable[i] {
			a.add(CodeUnreachableState, Warn, a.prog.States[i].Name,
				"no path from the initial configuration enters this state")
		}
	}
	for i := range a.prog.Trans {
		t := &a.prog.Trans[i]
		if !a.reachable[t.From] {
			a.add(CodeUnreachableTransition, Warn, t.Label, "source state %s is unreachable", a.prog.States[t.From].Name)
		} else if a.guardAlwaysFalse(t) {
			a.add(CodeUnreachableTransition, Warn, t.Label, "guard is statically false")
		}
	}
}

// ---- guard overlap / shadowing ----

// dominates reports that trigger h is enabled whenever trigger l is, so a
// higher-priority transition with trigger h and an always-true guard
// makes a lower-priority one with trigger l dead.
func dominates(h, l codegen.TrigCode) bool {
	switch h.Kind {
	case statechart.TrigNone:
		return true
	case statechart.TrigEvent:
		return l.Kind == statechart.TrigEvent && l.Event == h.Event
	case statechart.TrigAfter:
		switch l.Kind {
		case statechart.TrigAfter, statechart.TrigAt:
			return h.N <= l.N
		}
	case statechart.TrigBefore:
		switch l.Kind {
		case statechart.TrigBefore:
			return h.N >= l.N
		case statechart.TrigAt:
			return l.N >= 0 && l.N < h.N
		}
	case statechart.TrigAt:
		return l.Kind == statechart.TrigAt && h.N == l.N
	}
	return false
}

// tickWindow returns the [lo, hi] range of ticks-in-state where the
// trigger's temporal condition holds.
func tickWindow(t codegen.TrigCode) (int64, int64) {
	switch t.Kind {
	case statechart.TrigAfter:
		return maxI(t.N, 0), math.MaxInt64
	case statechart.TrigBefore:
		return 0, t.N - 1
	case statechart.TrigAt:
		return t.N, t.N
	}
	return 0, math.MaxInt64
}

// overlapping reports trigger pairs that can be enabled in the same pick.
// Pairs whose priority resolution is an intentional design — distinct
// events, or an event against a temporal — are not flagged; the
// interesting races are same-condition pairs whose outcome silently
// depends on document order.
func overlapping(x, y codegen.TrigCode) bool {
	if neverEnabled(x) || neverEnabled(y) {
		return false
	}
	switch {
	case x.Kind == statechart.TrigEvent || y.Kind == statechart.TrigEvent:
		return x.Kind == y.Kind && x.Event == y.Event
	case x.Kind == statechart.TrigNone || y.Kind == statechart.TrigNone:
		return true
	}
	lo1, hi1 := tickWindow(x)
	lo2, hi2 := tickWindow(y)
	return maxI(lo1, lo2) <= minI(hi1, hi2)
}

// guardAST returns the parsed guard of transition id when the chart AST
// is available (nil in bytecode-only runs).
func (a *analysis) guardAST(id int) statechart.Expr {
	if a.cc == nil {
		return nil
	}
	if a.guardExprs == nil {
		a.guardExprs = make(map[int]statechart.Expr)
		a.cc.WalkTransitions(func(ti statechart.TransitionInfo) {
			a.guardExprs[ti.Index] = ti.Guard
		})
	}
	return a.guardExprs[id]
}

// complementary reports guards that are syntactic complements (g and !g,
// or the same comparison with complementary operators) — the standard
// deterministic two-way split.
func complementary(e1, e2 statechart.Expr) bool {
	if e1 == nil || e2 == nil {
		return false
	}
	if u, ok := e1.(*statechart.Unary); ok && u.Op == "!" && u.X.String() == e2.String() {
		return true
	}
	if u, ok := e2.(*statechart.Unary); ok && u.Op == "!" && u.X.String() == e1.String() {
		return true
	}
	b1, ok1 := e1.(*statechart.Binary)
	b2, ok2 := e2.(*statechart.Binary)
	if !ok1 || !ok2 {
		return false
	}
	if b1.L.String() != b2.L.String() || b1.R.String() != b2.R.String() {
		return false
	}
	comp := map[string]string{"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
	return comp[b1.Op] == b2.Op
}

// checkGuards flags shadowed transitions (an earlier sibling always wins)
// and nondeterministic pairs (overlapping triggers with simultaneously
// satisfiable, non-complementary guards) on each source state.
func (a *analysis) checkGuards() {
	for si := range a.prog.States {
		trs := a.prog.States[si].Trans
		for i := 0; i < len(trs); i++ {
			ti := &a.prog.Trans[trs[i]]
			for j := i + 1; j < len(trs); j++ {
				tj := &a.prog.Trans[trs[j]]
				if dominates(ti.Trig, tj.Trig) && a.guardAlwaysTrue(ti) {
					a.add(CodeUnreachableTransition, Warn, tj.Label,
						"shadowed by higher-priority %s, whose trigger subsumes this one and whose guard is always true", ti.Label)
					continue
				}
				if overlapping(ti.Trig, tj.Trig) &&
					a.guardSatisfiable(ti) && a.guardSatisfiable(tj) &&
					!complementary(a.guardAST(ti.ID), a.guardAST(tj.ID)) {
					a.add(CodeNondetGuards, Warn, a.prog.States[si].Name,
						"%s and %s can be enabled simultaneously; the runtime resolves the race by document order", ti.Label, tj.Label)
				}
			}
		}
	}
}

// ---- variable and event usage ----

// checkVariables audits slot usage from the bytecode: use-before-def
// locals, dead local writes, unread inputs, unwritten outputs and unused
// events.
func (a *analysis) checkVariables() {
	reads := make([]bool, len(a.prog.Vars))
	for _, in := range a.prog.Code {
		if in.Op == codegen.OpLoad && in.A >= 0 && int(in.A) < len(reads) {
			reads[in.A] = true
		}
	}
	for _, v := range a.prog.Vars {
		switch v.Kind {
		case statechart.Local:
			if reads[v.ID] && !a.storedSlots[v.ID] {
				a.add(CodeReadUnwritten, Warn, v.Name,
					"local is read but never assigned; it always holds its initial value %d", v.Init)
			}
			if a.storedSlots[v.ID] && !reads[v.ID] {
				a.add(CodeDeadWrite, Warn, v.Name, "local is assigned but never read")
			}
		case statechart.Input:
			if !reads[v.ID] {
				a.add(CodeUnusedInput, Warn, v.Name, "input variable is never read by any guard or action")
			}
		case statechart.Output:
			if !a.storedSlots[v.ID] {
				a.add(CodeUnwrittenOutput, Warn, v.Name,
					"output variable is never assigned; the platform can only observe its initial value %d", v.Init)
			}
		}
	}
	used := make([]bool, len(a.prog.Events))
	for i := range a.prog.Trans {
		t := &a.prog.Trans[i]
		if t.Trig.Kind == statechart.TrigEvent && t.Trig.Event >= 0 && t.Trig.Event < len(used) {
			used[t.Trig.Event] = true
		}
	}
	for i, name := range a.prog.Events {
		if !used[i] {
			a.add(CodeUnusedEvent, Warn, name, "declared event triggers no transition")
		}
	}
}

// ---- temporal constants ----

// horizonWarn is the tick-threshold horizon beyond which a temporal
// constant is suspicious (likely a unit mistake against the E_CLK tick).
const horizonWarn = 24 * time.Hour

// checkTemporal audits before/after/at constants against the E_CLK tick.
func (a *analysis) checkTemporal() {
	for i := range a.prog.Trans {
		t := &a.prog.Trans[i]
		switch t.Trig.Kind {
		case statechart.TrigBefore:
			if t.Trig.N <= 0 {
				a.add(CodeTemporalConstant, Fatal, t.Label,
					"before(%d, E_CLK) is never enabled: ticks-in-state is never negative", t.Trig.N)
				continue
			}
		case statechart.TrigAfter:
			if t.Trig.N < 0 {
				a.add(CodeTemporalConstant, Fatal, t.Label,
					"after(%d, E_CLK) has a negative tick threshold", t.Trig.N)
				continue
			}
			if t.Trig.N == 0 {
				a.add(CodeTemporalConstant, Info, t.Label,
					"after(0, E_CLK) is always enabled; equivalent to no trigger")
			}
		case statechart.TrigAt:
			if t.Trig.N < 0 {
				a.add(CodeTemporalConstant, Fatal, t.Label,
					"at(%d, E_CLK) is never enabled: ticks-in-state is never negative", t.Trig.N)
				continue
			}
		default:
			continue
		}
		if tp := a.prog.TickPeriod; tp > 0 && t.Trig.N > int64(horizonWarn/tp) {
			a.add(CodeTemporalConstant, Warn, t.Label,
				"threshold %d spans more than %v at the %v E_CLK tick; check the units", t.Trig.N, horizonWarn, tp)
		}
	}
}

// ---- structure: sinks, implicit initials, livelock ----

func (a *analysis) checkStructure() {
	a.checkSinks()
	a.checkImplicitInitials()
	a.checkLivelock()
}

// checkSinks flags reachable leaf configurations with no outgoing
// transition at any scope level: the chart deadlocks once it gets there.
func (a *analysis) checkSinks() {
	for sid := range a.prog.States {
		if a.prog.States[sid].Initial >= 0 || (a.reachable != nil && !a.reachable[sid]) {
			continue
		}
		total := 0
		for _, s := range a.scanStates(sid) {
			total += len(a.prog.States[s].Trans)
		}
		if total == 0 {
			a.add(CodeSinkState, Warn, a.prog.States[sid].Name,
				"leaf state has no outgoing transition at any scope; the chart can never leave it")
		}
	}
}

// checkImplicitInitials flags composites (and the chart itself) that rely
// on the implicit first-child default instead of naming their initial
// state.
func (a *analysis) checkImplicitInitials() {
	c := a.chart
	if c == nil && a.cc != nil {
		c = a.cc.Chart()
	}
	if c == nil {
		return
	}
	if c.Initial == "" && len(c.States) > 0 {
		a.add(CodeImplicitInitial, Info, c.Name,
			"chart relies on the first top-level state %q as its implicit initial state", c.States[0].Name)
	}
	var walk func(s *statechart.State)
	walk = func(s *statechart.State) {
		if len(s.Children) > 0 && s.Initial == "" {
			a.add(CodeImplicitInitial, Info, s.Name,
				"composite relies on its first child %q as the implicit initial state", s.Children[0].Name)
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	for _, s := range c.States {
		walk(s)
	}
}

// instantGraph builds the instant-transition successor relation: node[i]
// marks transitions that can fire in a freshly entered configuration with
// a satisfiable guard; adj[i] lists the instant transitions that can fire
// immediately after i within the same step's chain.
func (a *analysis) instantGraph() (node []bool, adj [][]int) {
	n := len(a.prog.Trans)
	node = make([]bool, n)
	for i := range a.prog.Trans {
		t := &a.prog.Trans[i]
		node[i] = instantCapable(t.Trig) && a.guardSatisfiable(t) &&
			(a.reachable == nil || a.reachable[t.From])
	}
	adj = make([][]int, n)
	for i := range a.prog.Trans {
		if !node[i] {
			continue
		}
		scanned := make(map[int]bool)
		for _, s := range a.scanStates(a.afterLeaf(a.prog.Trans[i].To)) {
			scanned[s] = true
		}
		for j := range a.prog.Trans {
			if node[j] && scanned[a.prog.Trans[j].From] {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return node, adj
}

// checkLivelock finds cycles of instantly enabled transitions: within one
// step the chain re-fires around the cycle until the MaxChain guard
// aborts the step. All-unconditional cycles are definite livelocks
// (Fatal); guarded ones are potential (Warn).
func (a *analysis) checkLivelock() {
	node, adj := a.instantGraph()
	n := len(node)
	color := make([]int, n) // 0 unvisited, 1 on stack, 2 done
	var stack []int
	reported := make(map[string]bool)
	var dfs func(int)
	dfs = func(u int) {
		color[u] = 1
		stack = append(stack, u)
		for _, v := range adj[u] {
			if color[v] == 1 {
				a.reportCycle(stack, v, reported)
			} else if color[v] == 0 {
				dfs(v)
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = 2
	}
	for i := 0; i < n; i++ {
		if node[i] && color[i] == 0 {
			dfs(i)
		}
	}
}

func (a *analysis) reportCycle(stack []int, start int, reported map[string]bool) {
	var cycle []int
	for i := len(stack) - 1; i >= 0; i-- {
		cycle = append([]int{stack[i]}, cycle...)
		if stack[i] == start {
			break
		}
	}
	labels := make([]string, len(cycle))
	definite := true
	for i, tid := range cycle {
		t := &a.prog.Trans[tid]
		labels[i] = t.Label
		if !a.guardAlwaysTrue(t) {
			definite = false
		}
	}
	key := strings.Join(labels, "|")
	if reported[key] {
		return
	}
	reported[key] = true
	sev := Warn
	detail := "instantly enabled transitions can cycle within one step until the %d-transition chain guard aborts it: %s"
	if definite {
		sev = Fatal
		detail = "unconditional instant transitions always cycle within one step until the %d-transition chain guard aborts it: %s"
	}
	a.add(CodeLivelock, sev, labels[0], detail, statechart.MaxChain, strings.Join(labels, " -> "))
}
