package statechart

import (
	"fmt"
	"sort"
	"time"
)

// Type is the declared type of a chart variable.
type Type int

// Variable types.
const (
	Bool Type = iota
	Int
)

func (t Type) String() string {
	if t == Bool {
		return "bool"
	}
	return "int"
}

// VarKind classifies a chart variable at the model's abstraction boundary.
type VarKind int

// Variable kinds. Inputs are written by the platform's input-interfacing
// code (they correspond to the i-variables of the four-variable model);
// Outputs are read by the output-interfacing code (o-variables); Locals
// are internal to CODE(M).
const (
	Input VarKind = iota
	Output
	Local
)

func (k VarKind) String() string {
	switch k {
	case Input:
		return "input"
	case Output:
		return "output"
	case Local:
		return "local"
	}
	return fmt.Sprintf("VarKind(%d)", int(k))
}

// VarDecl declares a chart variable.
type VarDecl struct {
	Name string
	Type Type
	Kind VarKind
	Init int64
}

// Transition is an edge of the chart, owned by its source state. Document
// order within the source state defines evaluation priority.
type Transition struct {
	To      string
	Trigger string // "", event name, or after/before/at(n, E_CLK)
	Guard   string // boolean expression; "" means always
	Action  string // assignments executed when the transition is taken
	Label   string // optional human-readable label; defaults to From->To
}

// State is a chart state. A state with Children behaves as a Stateflow
// composite: entering it descends into the Initial child; transitions
// declared on the composite apply while any descendant is active and are
// checked after the active leaf's own transitions.
type State struct {
	Name        string
	Entry       string // action executed on entry
	Exit        string // action executed on exit
	Initial     string // default child for composites
	Children    []*State
	Transitions []Transition
}

// Chart is a complete timed statechart model.
type Chart struct {
	Name string
	// Events declares the input events (model-side i-events).
	Events []string
	// Vars declares inputs, outputs and locals.
	Vars []VarDecl
	// States are the top-level states.
	States []*State
	// Initial names the top-level initial state.
	Initial string
	// TickPeriod is the physical period of one E_CLK tick. The model is
	// verified in ticks; the platform integration uses TickPeriod to
	// relate tick counts to wall-clock requirements (e.g. 100 ms = 100
	// ticks at a 1 ms tick).
	TickPeriod time.Duration
}

// compiledTransition is a validated transition with parsed fragments.
type compiledTransition struct {
	from, to *compiledState
	trig     Trigger
	guard    Expr
	action   Action
	label    string
	index    int // global index, stable across runs
}

// compiledState is a validated state.
type compiledState struct {
	name     string
	parent   *compiledState
	initial  *compiledState
	children []*compiledState
	entry    Action
	exit     Action
	trans    []*compiledTransition
}

// Compiled is the validated, parsed form of a Chart shared by the code
// generator, the verifier and lint. Its Walk and accessor methods list
// states in document order and variables in declaration order; the code
// generator numbers states and variables in that order.
type Compiled struct {
	chart   *Chart
	states  map[string]*compiledState
	order   []*compiledState // document order; index = state id
	trans   []*compiledTransition
	events  map[string]struct{} // declared event names
	vars    map[string]int      // variable name -> variable id
	varList []VarDecl           // declaration order; index = variable id
	initial *compiledState
}

// Compile validates the chart and parses every expression fragment. All
// structural errors — duplicate names, dangling targets, undeclared
// variables, assignments to inputs — are reported here, before any
// simulation runs.
func (c *Chart) Compile() (*Compiled, error) {
	if c.Name == "" {
		return nil, fmt.Errorf("statechart: chart needs a name")
	}
	if c.TickPeriod <= 0 {
		return nil, fmt.Errorf("statechart %s: TickPeriod must be positive", c.Name)
	}
	cc := &Compiled{
		chart:   c,
		states:  make(map[string]*compiledState),
		events:  make(map[string]struct{}, len(c.Events)),
		vars:    make(map[string]int, len(c.Vars)),
		varList: make([]VarDecl, 0, len(c.Vars)),
	}
	for _, e := range c.Events {
		if _, dup := cc.events[e]; dup {
			return nil, fmt.Errorf("statechart %s: duplicate event %q", c.Name, e)
		}
		cc.events[e] = struct{}{}
	}
	for _, v := range c.Vars {
		if _, dup := cc.vars[v.Name]; dup {
			return nil, fmt.Errorf("statechart %s: duplicate variable %q", c.Name, v.Name)
		}
		if _, clash := cc.events[v.Name]; clash {
			return nil, fmt.Errorf("statechart %s: %q is both an event and a variable", c.Name, v.Name)
		}
		cc.vars[v.Name] = len(cc.varList)
		cc.varList = append(cc.varList, v)
	}
	// First pass: register states.
	var register func(s *State, parent *compiledState) error
	register = func(s *State, parent *compiledState) error {
		if s.Name == "" {
			return fmt.Errorf("statechart %s: state with empty name", c.Name)
		}
		if _, dup := cc.states[s.Name]; dup {
			return fmt.Errorf("statechart %s: duplicate state %q", c.Name, s.Name)
		}
		cs := &compiledState{name: s.Name, parent: parent}
		cc.states[s.Name] = cs
		cc.order = append(cc.order, cs)
		if parent != nil {
			parent.children = append(parent.children, cs)
		}
		for _, child := range s.Children {
			if err := register(child, cs); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range c.States {
		if err := register(s, nil); err != nil {
			return nil, err
		}
	}
	if len(cc.order) == 0 {
		return nil, fmt.Errorf("statechart %s: no states", c.Name)
	}
	// Second pass: parse actions and transitions, resolve names.
	var wire func(s *State) error
	wire = func(s *State) error {
		cs := cc.states[s.Name]
		var err error
		if cs.entry, err = cc.parseAction(s.Entry, "entry of "+s.Name); err != nil {
			return err
		}
		if cs.exit, err = cc.parseAction(s.Exit, "exit of "+s.Name); err != nil {
			return err
		}
		if len(s.Children) > 0 {
			init := s.Initial
			if init == "" {
				init = s.Children[0].Name
			}
			child, ok := cc.states[init]
			if !ok || child.parent != cs {
				return fmt.Errorf("statechart %s: state %q initial child %q not found among its children", c.Name, s.Name, init)
			}
			cs.initial = child
		} else if s.Initial != "" {
			return fmt.Errorf("statechart %s: leaf state %q declares initial child", c.Name, s.Name)
		}
		for ti, tr := range s.Transitions {
			target, ok := cc.states[tr.To]
			if !ok {
				return fmt.Errorf("statechart %s: transition from %q to unknown state %q", c.Name, s.Name, tr.To)
			}
			trig, err := ParseTrigger(tr.Trigger)
			if err != nil {
				return fmt.Errorf("trigger of %s->%s: %w", s.Name, tr.To, err)
			}
			if trig.Kind == TrigEvent {
				if _, declared := cc.events[trig.Event]; !declared {
					return fmt.Errorf("statechart %s: transition %s->%s triggers on undeclared event %q", c.Name, s.Name, tr.To, trig.Event)
				}
			}
			guard, err := ParseExpr(tr.Guard)
			if err != nil {
				return fmt.Errorf("guard of %s->%s: %w", s.Name, tr.To, err)
			}
			if err := cc.checkRefs(guard, fmt.Sprintf("guard of %s->%s", s.Name, tr.To)); err != nil {
				return err
			}
			action, err := cc.parseAction(tr.Action, fmt.Sprintf("action of %s->%s", s.Name, tr.To))
			if err != nil {
				return err
			}
			label := tr.Label
			if label == "" {
				label = s.Name + "->" + tr.To
			}
			ct := &compiledTransition{
				from: cs, to: target, trig: trig, guard: guard,
				action: action, label: label, index: len(cc.trans),
			}
			cs.trans = append(cs.trans, ct)
			cc.trans = append(cc.trans, ct)
			_ = ti
		}
		for _, child := range s.Children {
			if err := wire(child); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range c.States {
		if err := wire(s); err != nil {
			return nil, err
		}
	}
	init := c.Initial
	if init == "" {
		init = c.States[0].Name
	}
	is, ok := cc.states[init]
	if !ok || is.parent != nil {
		return nil, fmt.Errorf("statechart %s: initial state %q is not a top-level state", c.Name, init)
	}
	cc.initial = is
	return cc, nil
}

// parseAction parses and reference-checks an action fragment.
func (cc *Compiled) parseAction(src, where string) (Action, error) {
	acts, err := ParseAction(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", where, err)
	}
	for _, a := range acts {
		id, ok := cc.vars[a.Name]
		if !ok {
			return nil, fmt.Errorf("statechart %s: %s assigns undeclared variable %q", cc.chart.Name, where, a.Name)
		}
		if cc.varList[id].Kind == Input {
			return nil, fmt.Errorf("statechart %s: %s assigns input variable %q", cc.chart.Name, where, a.Name)
		}
		if err := cc.checkRefs(a.X, where); err != nil {
			return nil, err
		}
	}
	return acts, nil
}

func (cc *Compiled) checkRefs(e Expr, where string) error {
	if e == nil {
		return nil
	}
	for _, name := range Refs(e, nil) {
		if _, ok := cc.vars[name]; !ok {
			return fmt.Errorf("statechart %s: %s references undeclared variable %q", cc.chart.Name, where, name)
		}
	}
	return nil
}

// Chart returns the source chart.
func (cc *Compiled) Chart() *Chart { return cc.chart }

// StateNames returns all state names in document order.
func (cc *Compiled) StateNames() []string {
	names := make([]string, len(cc.order))
	for i, s := range cc.order {
		names[i] = s.name
	}
	return names
}

// TransitionCount returns the number of transitions in the chart.
func (cc *Compiled) TransitionCount() int { return len(cc.trans) }

// VarNames returns the declared variables of kind k, sorted by name.
func (cc *Compiled) VarNames(k VarKind) []string {
	var names []string
	for _, v := range cc.varList {
		if v.Kind == k {
			names = append(names, v.Name)
		}
	}
	sort.Strings(names)
	return names
}

// EventNames returns the declared events, sorted.
func (cc *Compiled) EventNames() []string {
	names := make([]string, 0, len(cc.events))
	for e := range cc.events {
		names = append(names, e)
	}
	sort.Strings(names)
	return names
}

// InitialLeaf resolves the chart's initial configuration down to a leaf.
func (cc *Compiled) InitialLeaf() string {
	s := cc.initial
	for s.initial != nil {
		s = s.initial
	}
	return s.name
}

// StateInfo is the parsed, validated form of one state, exposed for the
// code generator.
type StateInfo struct {
	Name    string
	Parent  string // "" for top-level states
	Initial string // "" for leaves
	Entry   Action
	Exit    Action
	IsTop   bool
}

// TransitionInfo is the parsed, validated form of one transition, exposed
// for the code generator. Index is the global document-order index: the
// id the generated code reports a taken transition by.
type TransitionInfo struct {
	Index  int
	From   string
	To     string
	Trig   Trigger
	Guard  Expr
	Action Action
	Label  string
}

// WalkStates calls fn for every state in document order.
func (cc *Compiled) WalkStates(fn func(StateInfo)) {
	for _, s := range cc.order {
		info := StateInfo{
			Name:  s.name,
			Entry: s.entry,
			Exit:  s.exit,
			IsTop: s.parent == nil,
		}
		if s.parent != nil {
			info.Parent = s.parent.name
		}
		if s.initial != nil {
			info.Initial = s.initial.name
		}
		fn(info)
	}
}

// WalkTransitions calls fn for every transition in global index order.
// Within one source state the calls follow document order (the priority
// order the runtime uses).
func (cc *Compiled) WalkTransitions(fn func(TransitionInfo)) {
	for _, t := range cc.trans {
		fn(TransitionInfo{
			Index:  t.index,
			From:   t.from.name,
			To:     t.to.name,
			Trig:   t.trig,
			Guard:  t.guard,
			Action: t.action,
			Label:  t.label,
		})
	}
}

// TopInitial returns the name of the top-level initial state.
func (cc *Compiled) TopInitial() string { return cc.initial.name }

// Declarations returns the declared variables in declaration order.
func (cc *Compiled) Declarations() []VarDecl {
	return append([]VarDecl(nil), cc.varList...)
}
