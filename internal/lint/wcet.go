package lint

import (
	"fmt"
	"strings"
	"time"

	"rmtest/internal/codegen"
	"rmtest/internal/statechart"
)

// TransWCET is the static worst-case execution cost of one transition.
type TransWCET struct {
	ID    int
	Label string
	// Guard is the cost of one guard evaluation attempt.
	Guard time.Duration
	// Fire bounds one firing — everything the runtime charges between
	// TransitionStart and TransitionFinish: the per-transition charge, the
	// worst exit chain from any leaf of the source subtree, the transition
	// action, and the entry chain including the default descent.
	Fire time.Duration
}

// WCETReport carries the static WCET bounds derived from the program
// tables and the execution-cost model. Every bound is a sound
// over-approximation of the corresponding dynamic measurement: Fire
// bounds the measured per-transition delays, StepTriggered bounds the
// CODE(M) portion of any step invocation, and Invocation composes the
// bounds into the WCET of a periodic CODE(M) task, so response-time
// analysis runs from static inputs alone.
type WCETReport struct {
	// TickPeriod is the chart's E_CLK tick, carried for Invocation.
	TickPeriod time.Duration
	// StepTriggered bounds one Step invocation when every declared event
	// is pending and every temporal trigger is eligible.
	StepTriggered time.Duration
	// StepQuiescent bounds one Step invocation with no pending events
	// (triggerless and temporal transitions may still fire — catch-up
	// ticks are bounded by this, not by a transition-free scan).
	StepQuiescent time.Duration
	// MaxTransition is the largest per-transition fire bound.
	MaxTransition time.Duration
	// MaxTransitionLabel names the transition attaining MaxTransition.
	MaxTransitionLabel string
	// ChainCapped reports that chain exploration hit the MaxChain bound
	// (an instant-transition cycle exists); the step bounds then charge
	// MaxChain worst-case scan+fire rounds.
	ChainCapped bool
	Transitions []TransWCET
}

// Invocation bounds one periodic task invocation that steps the chart
// with elapsed-tick catch-up: the first step may consume the latched
// events, the remaining period/TickPeriod - 1 catch-up steps run without
// events. The platform skips catch-up ticks that would repeat an idle
// step, but charges each exactly that idle step's cost, which
// StepQuiescent bounds, so the bound holds for skipped ticks too.
func (w WCETReport) Invocation(period time.Duration) time.Duration {
	ticks := int64(1)
	if w.TickPeriod > 0 && period > w.TickPeriod {
		ticks = int64(period / w.TickPeriod)
	}
	return w.StepTriggered + time.Duration(ticks-1)*w.StepQuiescent
}

// String renders the WCET summary as human text.
func (w WCETReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "static WCET: step %v triggered / %v quiescent", w.StepTriggered, w.StepQuiescent)
	if w.TickPeriod > 0 {
		fmt.Fprintf(&b, " (E_CLK tick %v)", w.TickPeriod)
	}
	if w.ChainCapped {
		fmt.Fprintf(&b, " [chain capped at %d]", statechart.MaxChain)
	}
	b.WriteString("\n")
	for _, t := range w.Transitions {
		fmt.Fprintf(&b, "  trans %-32s guard %-8v fire %v\n", t.Label, t.Guard, t.Fire)
	}
	return b.String()
}

// maxChainVars bounds the event+temporal state the chain exploration
// tracks exactly; beyond it the analysis falls back to the MaxChain cap.
const maxChainVars = 16

// computeWCET derives the static WCET bounds.
func computeWCET(a *analysis) WCETReport {
	w := WCETReport{TickPeriod: a.prog.TickPeriod}
	c := &wcetCalc{
		a:        a,
		memo:     make(map[chainKey]time.Duration),
		scanMemo: make(map[int]time.Duration),
	}
	if !c.tablesValid() {
		a.add(CodeStackBalance, Fatal, "program tables",
			"state/transition tables are malformed (dangling ids or cyclic parent/initial links); WCET analysis skipped")
		return w
	}
	c.fire = make([]time.Duration, len(a.prog.Trans))
	for i := range a.prog.Trans {
		t := &a.prog.Trans[i]
		c.fire[i] = c.fireWCET(i)
		tw := TransWCET{
			ID:    t.ID,
			Label: t.Label,
			Guard: time.Duration(t.Guard.Nodes) * a.cost.PerGuardNode,
			Fire:  c.fire[i],
		}
		w.Transitions = append(w.Transitions, tw)
		if tw.Fire > w.MaxTransition {
			w.MaxTransition = tw.Fire
			w.MaxTransitionLabel = t.Label
		}
	}

	// Identify the chain state: one bit per declared event, one bit per
	// once-per-step temporal transition (after/at with n >= 1; firing
	// exits and re-enters the source, resetting its tick counter, so each
	// can fire at most once per step).
	c.tmpBit = make(map[int]uint)
	for i := range a.prog.Trans {
		t := &a.prog.Trans[i]
		if (t.Trig.Kind == statechart.TrigAfter || t.Trig.Kind == statechart.TrigAt) && t.Trig.N >= 1 {
			c.tmpBit[t.ID] = uint(len(c.tmpBit))
		}
	}
	var leaves []int
	for sid := range a.prog.States {
		if a.prog.States[sid].Initial < 0 && (a.reachable == nil || a.reachable[sid]) {
			leaves = append(leaves, sid)
		}
	}
	for _, l := range leaves {
		if s := c.scanOf(l); s > c.maxScan {
			c.maxScan = s
		}
	}
	for _, f := range c.fire {
		if f > c.maxFire {
			c.maxFire = f
		}
	}

	blunt := len(a.prog.Events)+len(c.tmpBit) > maxChainVars
	if len(a.instantCycles()) > 0 {
		w.ChainCapped = true
		blunt = true
	}
	if blunt {
		// Cap: at most MaxChain scan+fire rounds per step (the runtime
		// aborts the chain there).
		w.StepTriggered = a.cost.StepBase + time.Duration(statechart.MaxChain)*(c.maxScan+c.maxFire)
		w.StepQuiescent = w.StepTriggered
		return w
	}

	allEv := uint64(0)
	if n := len(a.prog.Events); n >= 64 {
		allEv = ^uint64(0)
	} else {
		allEv = (uint64(1) << uint(n)) - 1
	}
	allTmp := (uint64(1) << uint(len(c.tmpBit))) - 1
	for _, l := range leaves {
		if d := a.cost.StepBase + c.chain(l, allEv, allTmp, 0); d > w.StepTriggered {
			w.StepTriggered = d
		}
		if d := a.cost.StepBase + c.chain(l, 0, allTmp, 0); d > w.StepQuiescent {
			w.StepQuiescent = d
		}
	}
	if len(leaves) == 0 {
		w.StepTriggered = a.cost.StepBase
		w.StepQuiescent = a.cost.StepBase
	}
	w.ChainCapped = w.ChainCapped || c.capped
	return w
}

// checkWCET flags transitions whose static fire bound exceeds the E_CLK
// tick period: one transition then consumes more platform time than the
// model step it belongs to, so the implementation cannot keep model time
// aligned with real time.
func (a *analysis) checkWCET(w WCETReport) {
	if a.prog.TickPeriod <= 0 {
		return
	}
	for _, t := range w.Transitions {
		if t.Fire > a.prog.TickPeriod {
			a.add(CodeWCETExceedsTick, Warn, t.Label,
				"static fire WCET %v exceeds the %v E_CLK tick period", t.Fire, a.prog.TickPeriod)
		}
	}
}

// chainKey identifies one chain-exploration state: the active leaf plus
// the not-yet-consumed event and temporal budgets.
type chainKey struct {
	leaf int
	ev   uint64
	tmp  uint64
}

type wcetCalc struct {
	a        *analysis
	memo     map[chainKey]time.Duration
	scanMemo map[int]time.Duration
	fire     []time.Duration
	tmpBit   map[int]uint
	maxScan  time.Duration
	maxFire  time.Duration
	capped   bool
}

// tablesValid rejects malformed hand-built tables (dangling ids, cyclic
// parent or initial links) that would break the structural walks.
func (c *wcetCalc) tablesValid() bool {
	p := c.a.prog
	n := len(p.States)
	for i := range p.States {
		s := &p.States[i]
		if s.Parent < -1 || s.Parent >= n || s.Initial < -1 || s.Initial >= n {
			return false
		}
		for _, tid := range s.Trans {
			if tid < 0 || tid >= len(p.Trans) {
				return false
			}
		}
	}
	for i := range p.States {
		d := 0
		for s := i; s >= 0; s = p.States[s].Parent {
			if d++; d > n {
				return false
			}
		}
		d = 0
		for s := i; p.States[s].Initial >= 0; s = p.States[s].Initial {
			if d++; d > n {
				return false
			}
		}
	}
	for i := range p.Trans {
		t := &p.Trans[i]
		if t.From < 0 || t.From >= n || t.To < 0 || t.To >= n {
			return false
		}
	}
	if n > 0 && (p.InitState < 0 || p.InitState >= n) {
		return false
	}
	return true
}

// fireWCET bounds one firing of transition i from the program tables:
// PerTransition + worst exit chain of the source subtree + the action +
// the entry chain down to the worst descent leaf.
func (c *wcetCalc) fireWCET(i int) time.Duration {
	t := &c.a.prog.Trans[i]
	cost := c.a.cost
	d := cost.PerTransition
	d += c.maxExit(t.From)
	d += time.Duration(t.Action.Nodes) * cost.PerActionNode
	scope := c.a.prog.States[t.From].Parent
	for s := t.To; s >= 0 && s != scope; s = c.a.prog.States[s].Parent {
		d += time.Duration(c.a.prog.States[s].Entry.Nodes) * cost.PerActionNode
	}
	d += c.maxDescend(t.To)
	return d
}

// maxExit bounds the exit-action cost of leaving sid from its deepest,
// most expensive active leaf: sid's own exit plus the worst child path.
func (c *wcetCalc) maxExit(sid int) time.Duration {
	d := time.Duration(c.a.prog.States[sid].Exit.Nodes) * c.a.cost.PerActionNode
	var worst time.Duration
	for _, ch := range c.a.childrenOf(sid) {
		if e := c.maxExit(ch); e > worst {
			worst = e
		}
	}
	return d + worst
}

// maxDescend is the entry-action cost of the default descent below sid
// (sid's own entry is charged by the caller's entry chain).
func (c *wcetCalc) maxDescend(sid int) time.Duration {
	var d time.Duration
	for s := c.a.prog.States[sid].Initial; s >= 0; s = c.a.prog.States[s].Initial {
		d += time.Duration(c.a.prog.States[s].Entry.Nodes) * c.a.cost.PerActionNode
	}
	return d
}

// scanOf bounds one full transition scan with leaf active: every guard of
// the leaf and its ancestors evaluated once.
func (c *wcetCalc) scanOf(leaf int) time.Duration {
	if d, ok := c.scanMemo[leaf]; ok {
		return d
	}
	var d time.Duration
	for _, sid := range c.a.scanStates(leaf) {
		for _, tid := range c.a.prog.States[sid].Trans {
			d += time.Duration(c.a.prog.Trans[tid].Guard.Nodes) * c.a.cost.PerGuardNode
		}
	}
	c.scanMemo[leaf] = d
	return d
}

// chain explores the worst super-step chain from the given configuration:
// a full scan, plus the most expensive eligible fire and its continuation.
// Consumption is monotone (each event and once-temporal fires at most
// once per step), so with no instant cycle the state space is a DAG and
// memoization is sound.
func (c *wcetCalc) chain(leaf int, ev, tmp uint64, depth int) time.Duration {
	if depth >= statechart.MaxChain {
		c.capped = true
		return 0
	}
	key := chainKey{leaf: leaf, ev: ev, tmp: tmp}
	if v, ok := c.memo[key]; ok {
		return v
	}
	var best time.Duration
	for _, sid := range c.a.scanStates(leaf) {
		for _, tid := range c.a.prog.States[sid].Trans {
			t := &c.a.prog.Trans[tid]
			ev2, tmp2, ok := c.eligible(t, ev, tmp)
			if !ok {
				continue
			}
			if v := c.fire[tid] + c.chain(c.a.afterLeaf(t.To), ev2, tmp2, depth+1); v > best {
				best = v
			}
		}
	}
	total := c.scanOf(leaf) + best
	c.memo[key] = total
	return total
}

// eligible decides whether transition t can fire under the remaining
// event/temporal budgets and returns the consumed budgets.
func (c *wcetCalc) eligible(t *codegen.TransRow, ev, tmp uint64) (uint64, uint64, bool) {
	if neverEnabled(t.Trig) || c.a.guardAlwaysFalse(t) {
		return 0, 0, false
	}
	switch t.Trig.Kind {
	case statechart.TrigEvent:
		bit := uint64(1) << uint(t.Trig.Event)
		if ev&bit == 0 {
			return 0, 0, false
		}
		return ev &^ bit, tmp, true
	case statechart.TrigNone, statechart.TrigBefore:
		return ev, tmp, true
	case statechart.TrigAfter, statechart.TrigAt:
		if instantCapable(t.Trig) {
			return ev, tmp, true
		}
		bit := uint64(1) << c.tmpBit[t.ID]
		if tmp&bit == 0 {
			return 0, 0, false
		}
		return ev, tmp &^ bit, true
	}
	return 0, 0, false
}
