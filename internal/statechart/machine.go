package statechart

import (
	"encoding/binary"
	"fmt"
)

// TakenTransition describes one transition taken during a Step.
type TakenTransition struct {
	Index int // global transition index (stable row id in codegen tables)
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
	Changed []VarChange
	// Writes lists every individual value-changing assignment to an
	// output variable, in execution order. A write that is later undone
	// within the same step still appears here — these are the model-level
	// o-events, which the verifier checks obligations against.
	Writes []VarChange
	// Err is non-nil if an action or guard failed to evaluate (e.g.
	// division by zero). The machine stops taking transitions for the
	// step when this happens.
	Err error
}

// VarChange is an output variable change observed during a step.
type VarChange struct {
	Name string
	From int64
	To   int64
}

// MaxChain bounds the number of chained transitions within a single
// super-step; exceeding it indicates a livelocked model.
const MaxChain = 64

// Machine is the interpreted chart runtime. It executes the model
// semantics directly and serves as the executable reference that the
// generated code (internal/codegen) is differentially tested against.
//
// Its configuration lives in slices indexed by the compiled ids of
// variables and states, so Restore, and a Step in which no transition
// fires, allocate nothing.
type Machine struct {
	cc     *Compiled
	active *compiledState // active leaf
	vars   []int64        // by variable id
	// entryTick records, by state id, the tick at which the state was
	// last entered; temporal triggers compare against it. Only the
	// entries of the active path are meaningful.
	entryTick []int64
	// lastChild records, by state id of a composite with a history
	// junction, the direct child that was active at the last exit; nil
	// means never exited. The slice is nil when no composite has a
	// history junction.
	lastChild []*compiledState
	tick      int64
	superStep bool
	// events marks, by event id, this tick's events that no transition
	// has consumed yet; before holds the outputs (in cc.outputs order) at
	// the start of the tick. Both are per-Step scratch.
	events []bool
	before []int64
}

// NewMachine creates a machine in the chart's initial configuration with
// all variables at their declared initial values. Super-step semantics
// (chaining transitions within one tick until stable) is enabled, matching
// the generated code the paper's flow produces.
func NewMachine(cc *Compiled) *Machine {
	m := &Machine{
		cc:        cc,
		vars:      make([]int64, len(cc.varList)),
		entryTick: make([]int64, len(cc.order)),
		superStep: true,
		events:    make([]bool, len(cc.events)),
		before:    make([]int64, len(cc.outputs)),
	}
	if len(cc.history) > 0 {
		m.lastChild = make([]*compiledState, len(cc.order))
	}
	m.Reset()
	return m
}

// SetSuperStep toggles transition chaining within one tick. With it off,
// at most one transition fires per Step.
func (m *Machine) SetSuperStep(on bool) { m.superStep = on }

// descendChild picks the child to descend into: the history child when
// the composite has a history junction and was exited before, otherwise
// the initial child.
func (m *Machine) descendChild(s *compiledState) *compiledState {
	if s.history {
		if last := m.lastChild[s.id]; last != nil {
			return last
		}
	}
	return s.initial
}

// enter marks s entered at the current tick and runs its entry action.
func (m *Machine) enter(s *compiledState, res *StepResult) {
	m.entryTick[s.id] = m.tick
	m.runAction(s.entry, res)
}

// enterFrom descends from s to its initial (or history) leaf, running
// entry actions.
func (m *Machine) enterFrom(s *compiledState) {
	for s != nil {
		m.enter(s, nil)
		if s.initial == nil {
			m.active = s
			return
		}
		s = m.descendChild(s)
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
	out := make([]string, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// InActivePath reports whether the named state is the active leaf or one
// of its ancestors. It allocates nothing.
func (m *Machine) InActivePath(state string) bool {
	for s := m.active; s != nil; s = s.parent {
		if s.name == state {
			return true
		}
	}
	return false
}

// Tick returns the number of Steps executed so far.
func (m *Machine) Tick() int64 { return m.tick }

// Get returns the value of a declared variable.
func (m *Machine) Get(name string) int64 {
	id, ok := m.cc.vars[name]
	if !ok {
		panic(fmt.Sprintf("statechart: Get of undeclared variable %q", name))
	}
	return m.vars[id]
}

// SetInput writes an input variable; the platform's input-interfacing
// code calls this before Step.
func (m *Machine) SetInput(name string, v int64) {
	id, ok := m.cc.vars[name]
	if !ok || m.cc.varList[id].Kind != Input {
		panic(fmt.Sprintf("statechart: SetInput of non-input %q", name))
	}
	m.vars[id] = v
}

// Vars returns a copy of the full variable valuation.
func (m *Machine) Vars() map[string]int64 {
	out := make(map[string]int64, len(m.vars))
	for id, v := range m.vars {
		out[m.cc.varList[id].Name] = v
	}
	return out
}

func (m *Machine) env(name string) (int64, bool) {
	id, ok := m.cc.vars[name]
	if !ok {
		return 0, false
	}
	return m.vars[id], true
}

func (m *Machine) runAction(a Action, res *StepResult) {
	for _, as := range a {
		v, err := Eval(as.X, m.env)
		if err != nil {
			if res != nil && res.Err == nil {
				res.Err = err
			}
			return
		}
		id := m.cc.vars[as.Name]
		old := m.vars[id]
		m.vars[id] = v
		if res != nil && old != v && m.cc.varList[id].Kind == Output {
			res.Writes = append(res.Writes, VarChange{Name: as.Name, From: old, To: v})
		}
	}
}

// ticksIn reports how many ticks state s (an ancestor or the leaf) has
// been active, counting the current tick.
func (m *Machine) ticksIn(s *compiledState) int64 {
	return m.tick - m.entryTick[s.id]
}

// enabled reports whether transition t may fire given the unconsumed
// events of this tick.
func (m *Machine) enabled(t *compiledTransition, res *StepResult) bool {
	switch t.trig.Kind {
	case TrigEvent:
		if !m.events[t.event] {
			return false
		}
	case TrigAfter:
		if m.ticksIn(t.from) < t.trig.N {
			return false
		}
	case TrigBefore:
		if m.ticksIn(t.from) >= t.trig.N {
			return false
		}
	case TrigAt:
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
func (m *Machine) pickTransition(res *StepResult) *compiledTransition {
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
func (m *Machine) fire(t *compiledTransition, res *StepResult) {
	// Exit from the active leaf up through the transition's source scope,
	// recording history along the way.
	exitTo := t.from.parent
	var prev *compiledState
	for s := m.active; s != nil && s != exitTo; s = s.parent {
		m.runAction(s.exit, res)
		if prev != nil && s.history {
			m.lastChild[s.id] = prev
		}
		prev = s
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
func (m *Machine) enterChain(target, scope *compiledState, res *StepResult) {
	m.enterAncestors(target, scope, res)
	s := target
	for s.initial != nil {
		s = m.descendChild(s)
		m.enter(s, res)
	}
	m.active = s
}

// enterAncestors enters s's ancestors below scope, outermost first, and
// then s itself.
func (m *Machine) enterAncestors(s, scope *compiledState, res *StepResult) {
	if s == nil || s == scope {
		return
	}
	m.enterAncestors(s.parent, scope, res)
	m.enter(s, res)
}

// Step executes one E_CLK tick with the given input events fired. It
// applies super-step semantics unless disabled: transitions chain until
// the configuration is stable or MaxChain is exceeded. An event is
// consumed by the first transition it triggers, so only temporal and
// guard-only transitions extend a chain — e.g. the pump model's
// Idle->BolusRequested (on i_BolusReq) chains into
// BolusRequested->Infusion (before(100, E_CLK)) within one tick.
func (m *Machine) Step(events ...string) StepResult {
	for _, e := range events {
		id, ok := m.cc.events[e]
		if !ok {
			clear(m.events)
			panic(fmt.Sprintf("statechart: Step with undeclared event %q", e))
		}
		m.events[id] = true
	}
	for i, id := range m.cc.outputs {
		m.before[i] = m.vars[id]
	}
	var res StepResult
	for n := 0; ; n++ {
		if n >= MaxChain {
			res.Err = fmt.Errorf("statechart %s: transition chain exceeded %d (livelock?)", m.cc.chart.Name, MaxChain)
			break
		}
		t := m.pickTransition(&res)
		if t == nil || res.Err != nil {
			break
		}
		if t.trig.Kind == TrigEvent {
			m.events[t.event] = false // an event triggers at most one transition
		}
		m.fire(t, &res)
		if !m.superStep {
			break
		}
	}
	clear(m.events)
	if len(res.Taken) == 0 && res.Err == nil {
		// Stable tick: run during actions along the active chain.
		for s := m.active; s != nil; s = s.parent {
			m.runAction(s.during, &res)
		}
	}
	for i, id := range m.cc.outputs {
		if old, now := m.before[i], m.vars[id]; now != old {
			res.Changed = append(res.Changed, VarChange{Name: m.cc.varList[id].Name, From: old, To: now})
		}
	}
	m.tick++
	return res
}

// MachineState is a saved machine configuration, used by the model
// checker to explore the chart's state space. It holds copies of the
// machine's id-indexed slices.
type MachineState struct {
	active    *compiledState
	vars      []int64
	entryTick []int64
	lastChild []*compiledState
	tick      int64
}

// Snapshot captures the current configuration, including history
// junctions. The variables and entry ticks share one allocation; a
// chart without history junctions needs no other.
func (m *Machine) Snapshot() MachineState {
	nv := len(m.vars)
	buf := make([]int64, nv+len(m.entryTick))
	copy(buf, m.vars)
	copy(buf[nv:], m.entryTick)
	s := MachineState{active: m.active, vars: buf[:nv:nv], entryTick: buf[nv:], tick: m.tick}
	if m.lastChild != nil {
		s.lastChild = append([]*compiledState(nil), m.lastChild...)
	}
	return s
}

// Restore returns the machine to a previously captured configuration by
// copying it into the machine's own storage; it allocates nothing.
func (m *Machine) Restore(s MachineState) {
	m.active = s.active
	m.tick = s.tick
	copy(m.vars, s.vars)
	copy(m.entryTick, s.entryTick)
	copy(m.lastChild, s.lastChild)
}

// HistoryLeaves returns the remembered history children as
// "composite:child" in document order of the composites.
func (m *Machine) HistoryLeaves() []string {
	var out []string
	for _, s := range m.cc.history {
		if child := m.lastChild[s.id]; child != nil {
			out = append(out, s.name+":"+child.name)
		}
	}
	return out
}

// ActiveTicks returns, for each state on the active path (root to leaf),
// how many ticks it has been active.
func (m *Machine) ActiveTicks() []int64 {
	var rev []int64
	for s := m.active; s != nil; s = s.parent {
		rev = append(rev, m.ticksIn(s))
	}
	out := make([]int64, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// AppendConfig appends a fixed-width binary encoding of the abstract
// configuration to b and returns the extended slice. The model checker
// keys its visited set with it. In order:
//   - the active leaf's state id (4 bytes);
//   - the active path's tick counts, leaf first, each saturated at
//     limit (8 bytes each);
//   - the values of the variables with the given ids, in the given order
//     (8 bytes each);
//   - one slot per composite with a history junction, in document order,
//     holding the remembered child's state id plus one, or 0 if the
//     composite was never exited (4 bytes each).
//
// The leaf fixes the path length, so two configurations with the same
// leaf encode to the same width, field by field; two with different
// leaves differ in the first field. Equal encodings therefore mean equal
// abstract configurations.
func (m *Machine) AppendConfig(b []byte, limit int64, vars []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(m.active.id))
	for s := m.active; s != nil; s = s.parent {
		b = binary.LittleEndian.AppendUint64(b, uint64(min(m.ticksIn(s), limit)))
	}
	for _, id := range vars {
		b = binary.LittleEndian.AppendUint64(b, uint64(m.vars[id]))
	}
	for _, s := range m.cc.history {
		var slot uint32
		if child := m.lastChild[s.id]; child != nil {
			slot = uint32(child.id) + 1
		}
		b = binary.LittleEndian.AppendUint32(b, slot)
	}
	return b
}

// MaxTemporalConst returns the largest tick constant appearing in any
// temporal trigger of the chart; the model checker uses it to saturate
// counters soundly.
func (cc *Compiled) MaxTemporalConst() int64 {
	var max int64
	for _, t := range cc.trans {
		if t.trig.Kind == TrigAfter || t.trig.Kind == TrigBefore || t.trig.Kind == TrigAt {
			if t.trig.N > max {
				max = t.trig.N
			}
		}
	}
	return max
}

// Reset returns the machine to the initial configuration and valuation,
// clearing history junctions.
func (m *Machine) Reset() {
	m.tick = 0
	clear(m.entryTick)
	clear(m.lastChild)
	for id, v := range m.cc.varList {
		m.vars[id] = v.Init
	}
	m.enterFrom(m.cc.initial)
}
