// Package interp is the chart interpreter: it executes a compiled chart's
// semantics directly, walking the states and the expression trees. It is
// the executable reference that the generated code (internal/codegen)
// and the model checker (internal/verify), which runs on the generated
// code, are differentially tested against. Only _test.go files import it,
// so shipped binaries link one chart runtime.
//
// A Machine builds its tables from the exported statechart.Compiled API,
// as codegen.Generate does, and keeps its configuration in slices
// indexed by state and variable ids, so Restore, and a Step in which no
// transition fires, allocate nothing.
package interp

import (
	"fmt"
	"slices"
	"strings"

	"rmtest/internal/statechart"
)

// TakenTransition describes one transition taken during a step.
type TakenTransition struct {
	Index int // global document-order index: the generated code's transition id
	From  string
	To    string
	Label string
}

// StepResult reports what one clock tick did.
type StepResult struct {
	// Taken lists the transitions taken, in order. Empty when the
	// configuration was stable for this tick.
	Taken []TakenTransition
	// Changed lists output variables whose value changed during the step,
	// sorted by name: the net effect the platform commits to actuators.
	Changed []statechart.VarChange
	// Writes lists every individual value-changing assignment to an
	// output variable, in execution order. A write that is later undone
	// within the same step still appears here — these are the model-level
	// o-events, which the verifier checks obligations against.
	Writes []statechart.VarChange
	// Err is non-nil if an action or guard failed to evaluate (e.g.
	// division by zero). The machine stops taking transitions for the
	// step when this happens.
	Err error
}

// state is one state of the interpreted chart.
type state struct {
	id      int // document-order index
	name    string
	parent  *state
	initial *state
	entry   statechart.Action
	exit    statechart.Action
	trans   []*transition
}

// transition is one transition of the interpreted chart.
type transition struct {
	index    int // global index, stable across runs
	from, to *state
	trig     statechart.Trigger
	event    int // the trigger's event id, for TrigEvent
	guard    statechart.Expr
	action   statechart.Action
	label    string
}

// Machine is the interpreted chart runtime.
type Machine struct {
	chart   string
	initial *state
	events  map[string]int // event name -> event id
	vars    map[string]int // variable name -> variable id
	decls   []statechart.VarDecl
	outputs []int // output variable ids, sorted by name

	active *state // active leaf
	values []int64
	// entryTick records, by state id, the tick at which the state was
	// last entered; temporal triggers compare against it. Only the
	// entries of the active path are meaningful.
	entryTick []int64
	tick      int64
	// pending marks, by event id, this tick's events that no transition
	// has consumed yet; before holds the outputs (in outputs order) at
	// the start of the tick. Both are per-Step scratch.
	pending []bool
	before  []int64
}

// NewMachine creates a machine in the chart's initial configuration with
// all variables at their declared initial values. Each Step applies
// super-step semantics (chaining transitions within one tick until
// stable), matching the generated code the paper's flow produces.
func NewMachine(cc *statechart.Compiled) *Machine {
	m := &Machine{
		chart:  cc.Chart().Name,
		events: map[string]int{},
		vars:   map[string]int{},
		decls:  cc.Declarations(),
	}
	for id, e := range cc.EventNames() {
		m.events[e] = id
	}
	for id, d := range m.decls {
		m.vars[d.Name] = id
		if d.Kind == statechart.Output {
			m.outputs = append(m.outputs, id)
		}
	}
	slices.SortFunc(m.outputs, func(a, b int) int {
		return strings.Compare(m.decls[a].Name, m.decls[b].Name)
	})
	var states []*state
	byName := map[string]*state{}
	cc.WalkStates(func(info statechart.StateInfo) {
		s := &state{id: len(states), name: info.Name, entry: info.Entry, exit: info.Exit}
		states = append(states, s)
		byName[info.Name] = s
	})
	cc.WalkStates(func(info statechart.StateInfo) {
		s := byName[info.Name]
		s.parent = byName[info.Parent]
		s.initial = byName[info.Initial]
	})
	cc.WalkTransitions(func(info statechart.TransitionInfo) {
		t := &transition{
			index: info.Index, from: byName[info.From], to: byName[info.To],
			trig: info.Trig, guard: info.Guard, action: info.Action, label: info.Label,
		}
		if t.trig.Kind == statechart.TrigEvent {
			t.event = m.events[t.trig.Event]
		}
		t.from.trans = append(t.from.trans, t)
	})
	m.initial = byName[cc.TopInitial()]
	m.values = make([]int64, len(m.decls))
	m.entryTick = make([]int64, len(states))
	m.pending = make([]bool, len(m.events))
	m.before = make([]int64, len(m.outputs))
	m.Reset()
	return m
}

// enter marks s entered at the current tick and runs its entry action.
func (m *Machine) enter(s *state, res *StepResult) {
	m.entryTick[s.id] = m.tick
	m.runAction(s.entry, res)
}

// enterFrom descends from s to its initial leaf, running entry actions.
func (m *Machine) enterFrom(s *state) {
	for s != nil {
		m.enter(s, nil)
		if s.initial == nil {
			m.active = s
			return
		}
		s = s.initial
	}
}

// ActiveState returns the name of the active leaf state.
func (m *Machine) ActiveState() string { return m.active.name }

// ActivePath returns the active state chain from the top-level state down
// to the leaf.
func (m *Machine) ActivePath() []string {
	var rev []string
	for s := m.active; s != nil; s = s.parent {
		rev = append(rev, s.name)
	}
	slices.Reverse(rev)
	return rev
}

// Tick returns the number of Steps executed so far.
func (m *Machine) Tick() int64 { return m.tick }

// Get returns the value of a declared variable.
func (m *Machine) Get(name string) int64 {
	id, ok := m.vars[name]
	if !ok {
		panic(fmt.Sprintf("interp: Get of undeclared variable %q", name))
	}
	return m.values[id]
}

// SetInput writes an input variable; the platform's input-interfacing
// code calls this before Step.
func (m *Machine) SetInput(name string, v int64) {
	id, ok := m.vars[name]
	if !ok || m.decls[id].Kind != statechart.Input {
		panic(fmt.Sprintf("interp: SetInput of non-input %q", name))
	}
	m.values[id] = v
}

// Vars returns a copy of the full variable valuation.
func (m *Machine) Vars() map[string]int64 {
	out := make(map[string]int64, len(m.values))
	for id, v := range m.values {
		out[m.decls[id].Name] = v
	}
	return out
}

func (m *Machine) env(name string) (int64, bool) {
	id, ok := m.vars[name]
	if !ok {
		return 0, false
	}
	return m.values[id], true
}

func (m *Machine) runAction(a statechart.Action, res *StepResult) {
	for _, as := range a {
		v, err := Eval(as.X, m.env)
		if err != nil {
			if res != nil && res.Err == nil {
				res.Err = err
			}
			return
		}
		id := m.vars[as.Name]
		old := m.values[id]
		m.values[id] = v
		if res != nil && old != v && m.decls[id].Kind == statechart.Output {
			res.Writes = append(res.Writes, statechart.VarChange{Name: as.Name, From: old, To: v})
		}
	}
}

// ticksIn reports how many ticks state s (an ancestor or the leaf) has
// been active, counting the current tick.
func (m *Machine) ticksIn(s *state) int64 {
	return m.tick - m.entryTick[s.id]
}

// enabled reports whether transition t may fire given the unconsumed
// events of this tick.
func (m *Machine) enabled(t *transition, res *StepResult) bool {
	switch t.trig.Kind {
	case statechart.TrigEvent:
		if !m.pending[t.event] {
			return false
		}
	case statechart.TrigAfter:
		if m.ticksIn(t.from) < t.trig.N {
			return false
		}
	case statechart.TrigBefore:
		if m.ticksIn(t.from) >= t.trig.N {
			return false
		}
	case statechart.TrigAt:
		if m.ticksIn(t.from) != t.trig.N {
			return false
		}
	}
	if t.guard == nil {
		return true
	}
	v, err := Eval(t.guard, m.env)
	if err != nil {
		if res.Err == nil {
			res.Err = err
		}
		return false
	}
	return v != 0
}

// pickTransition searches the active leaf and then its ancestors for the
// first enabled transition, in document order per state.
func (m *Machine) pickTransition(res *StepResult) *transition {
	for s := m.active; s != nil; s = s.parent {
		for _, t := range s.trans {
			if m.enabled(t, res) {
				return t
			}
		}
	}
	return nil
}

// fire executes transition t: exit actions up from the leaf to (but not
// including) the common ancestor scope, the transition action, then entry
// actions down to the target leaf. Exited states keep their stale entry
// ticks: only the active path's are ever read.
func (m *Machine) fire(t *transition, res *StepResult) {
	// Exit from the active leaf up through the transition's source scope.
	exitTo := t.from.parent
	for s := m.active; s != nil && s != exitTo; s = s.parent {
		m.runAction(s.exit, res)
	}
	m.runAction(t.action, res)
	// Enter target: ensure ancestors of the target that are not already
	// active get entry timestamps too.
	m.enterChain(t.to, exitTo, res)
	res.Taken = append(res.Taken, TakenTransition{
		Index: t.index, From: t.from.name, To: t.to.name, Label: t.label,
	})
}

// enterChain enters target (and any ancestors between scope and target
// that are not yet active), then descends to the initial leaf.
func (m *Machine) enterChain(target, scope *state, res *StepResult) {
	m.enterAncestors(target, scope, res)
	s := target
	for s.initial != nil {
		s = s.initial
		m.enter(s, res)
	}
	m.active = s
}

// enterAncestors enters s's ancestors below scope, outermost first, and
// then s itself.
func (m *Machine) enterAncestors(s, scope *state, res *StepResult) {
	if s == nil || s == scope {
		return
	}
	m.enterAncestors(s.parent, scope, res)
	m.enter(s, res)
}

// Step executes one E_CLK tick with the given input events fired. It
// applies super-step semantics: transitions chain until the
// configuration is stable or statechart.MaxChain is exceeded. An event is
// consumed by the first transition it triggers, so only temporal and
// guard-only transitions extend a chain — e.g. the pump model's
// Idle->BolusRequested (on i_BolusReq) chains into
// BolusRequested->Infusion (before(100, E_CLK)) within one tick.
func (m *Machine) Step(events ...string) StepResult {
	for _, e := range events {
		id, ok := m.events[e]
		if !ok {
			clear(m.pending)
			panic(fmt.Sprintf("interp: Step with undeclared event %q", e))
		}
		m.pending[id] = true
	}
	for i, id := range m.outputs {
		m.before[i] = m.values[id]
	}
	var res StepResult
	for n := 0; ; n++ {
		if n >= statechart.MaxChain {
			res.Err = fmt.Errorf("interp %s: transition chain exceeded %d (livelock?)", m.chart, statechart.MaxChain)
			break
		}
		t := m.pickTransition(&res)
		if t == nil || res.Err != nil {
			break
		}
		if t.trig.Kind == statechart.TrigEvent {
			m.pending[t.event] = false // an event triggers at most one transition
		}
		m.fire(t, &res)
	}
	clear(m.pending)
	for i, id := range m.outputs {
		if old, now := m.before[i], m.values[id]; now != old {
			res.Changed = append(res.Changed, statechart.VarChange{Name: m.decls[id].Name, From: old, To: now})
		}
	}
	m.tick++
	return res
}

// MachineState is a saved machine configuration. It holds copies of the
// machine's id-indexed slices.
type MachineState struct {
	active    *state
	vars      []int64
	entryTick []int64
	tick      int64
}

// Snapshot captures the current configuration. The variables and entry
// ticks share one allocation.
func (m *Machine) Snapshot() MachineState {
	nv := len(m.values)
	buf := make([]int64, nv+len(m.entryTick))
	copy(buf, m.values)
	copy(buf[nv:], m.entryTick)
	return MachineState{active: m.active, vars: buf[:nv:nv], entryTick: buf[nv:], tick: m.tick}
}

// Restore returns the machine to a previously captured configuration by
// copying it into the machine's own storage; it allocates nothing.
func (m *Machine) Restore(s MachineState) {
	m.active = s.active
	m.tick = s.tick
	copy(m.values, s.vars)
	copy(m.entryTick, s.entryTick)
}

// ActiveTicks returns, for each state on the active path (root to leaf),
// how many ticks it has been active.
func (m *Machine) ActiveTicks() []int64 {
	var rev []int64
	for s := m.active; s != nil; s = s.parent {
		rev = append(rev, m.ticksIn(s))
	}
	slices.Reverse(rev)
	return rev
}

// Reset returns the machine to the initial configuration and valuation.
func (m *Machine) Reset() {
	m.tick = 0
	clear(m.entryTick)
	for id, d := range m.decls {
		m.values[id] = d.Init
	}
	m.enterFrom(m.initial)
}
