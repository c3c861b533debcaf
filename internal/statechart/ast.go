// Package statechart implements the timed statechart modelling language
// used as the Simulink/Stateflow stand-in for the model-based
// implementation flow the paper studies.
//
// A Chart declares input events (the model-side i-events), typed variables
// (outputs are the model-side o-variables), and states connected by
// guarded transitions. Transitions carry a trigger (an input event or a
// temporal operator counting occurrences of the chart clock E_CLK since
// state entry), a guard expression and an action — small programs in a
// Stateflow-style action language: `o_MotorState := 1; doses := doses + 1`.
//
// Charts have Stateflow-like super-step semantics: one step per clock
// tick, chaining through enabled transitions until the configuration is
// stable. internal/codegen compiles a chart to transition tables and
// bytecode, the "auto-generated code" (CODE (M)) whose timing the
// framework tests; its executor is the one chart runtime the shipped
// binaries run, and the model checker (internal/verify) explores it.
// internal/interp interprets the chart directly, as the tests'
// executable reference.
package statechart

import (
	"fmt"
	"strings"
)

// Expr is a node of the action-language expression tree.
type Expr interface {
	fmt.Stringer
	// nodeCount reports the number of AST nodes, used by the code
	// generator's execution-cost model.
	nodeCount() int
}

// NumLit is an integer literal.
type NumLit struct{ Value int64 }

// BoolLit is a boolean literal (`true` / `false`).
type BoolLit struct{ Value bool }

// Ref reads a chart variable.
type Ref struct{ Name string }

// Unary applies `-` or `!` to an operand.
type Unary struct {
	Op string
	X  Expr
}

// Binary applies an arithmetic, comparison or logical operator.
type Binary struct {
	Op   string
	L, R Expr
}

// Call invokes a builtin function (abs, min, max).
type Call struct {
	Name string
	Args []Expr
}

func (n *NumLit) String() string  { return fmt.Sprintf("%d", n.Value) }
func (n *BoolLit) String() string { return fmt.Sprintf("%v", n.Value) }
func (n *Ref) String() string     { return n.Name }
func (n *Unary) String() string   { return n.Op + n.X.String() }
func (n *Binary) String() string {
	return "(" + n.L.String() + " " + n.Op + " " + n.R.String() + ")"
}
func (n *Call) String() string {
	args := make([]string, len(n.Args))
	for i, a := range n.Args {
		args[i] = a.String()
	}
	return n.Name + "(" + strings.Join(args, ", ") + ")"
}

func (n *NumLit) nodeCount() int  { return 1 }
func (n *BoolLit) nodeCount() int { return 1 }
func (n *Ref) nodeCount() int     { return 1 }
func (n *Unary) nodeCount() int   { return 1 + n.X.nodeCount() }
func (n *Binary) nodeCount() int  { return 1 + n.L.nodeCount() + n.R.nodeCount() }
func (n *Call) nodeCount() int {
	c := 1
	for _, a := range n.Args {
		c += a.nodeCount()
	}
	return c
}

// Assign is one action-language statement: `name := expr`.
type Assign struct {
	Name string
	X    Expr
}

func (a *Assign) String() string { return a.Name + " := " + a.X.String() }

// Action is a sequence of assignments executed in order.
type Action []*Assign

func (acts Action) String() string {
	parts := make([]string, len(acts))
	for i, a := range acts {
		parts[i] = a.String()
	}
	return strings.Join(parts, "; ")
}

// NodeCount reports the total AST size of the action; the code generator
// charges execution cost proportional to it.
func (acts Action) NodeCount() int {
	c := 0
	for _, a := range acts {
		c += 1 + a.X.nodeCount()
	}
	return c
}

// NodeCount reports the AST size of an expression (exported counterpart of
// the interface method, for the code generator's cost model).
func NodeCount(e Expr) int {
	if e == nil {
		return 0
	}
	return e.nodeCount()
}

// TriggerKind discriminates transition triggers.
type TriggerKind int

// Trigger kinds.
const (
	TrigNone   TriggerKind = iota // no trigger: enabled every tick
	TrigEvent                     // fires when the named input event occurs
	TrigAfter                     // after(n, E_CLK): tick count since entry >= n
	TrigBefore                    // before(n, E_CLK): tick count since entry < n
	TrigAt                        // at(n, E_CLK): tick count since entry == n
)

func (k TriggerKind) String() string {
	switch k {
	case TrigNone:
		return "none"
	case TrigEvent:
		return "event"
	case TrigAfter:
		return "after"
	case TrigBefore:
		return "before"
	case TrigAt:
		return "at"
	}
	return fmt.Sprintf("TriggerKind(%d)", int(k))
}

// Trigger is a parsed transition trigger.
type Trigger struct {
	Kind  TriggerKind
	Event string // TrigEvent
	N     int64  // temporal kinds: tick threshold
}

func (t Trigger) String() string {
	switch t.Kind {
	case TrigNone:
		return ""
	case TrigEvent:
		return t.Event
	case TrigAfter:
		return fmt.Sprintf("after(%d, E_CLK)", t.N)
	case TrigBefore:
		return fmt.Sprintf("before(%d, E_CLK)", t.N)
	case TrigAt:
		return fmt.Sprintf("at(%d, E_CLK)", t.N)
	}
	return "?"
}
