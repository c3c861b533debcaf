package codegen

import (
	"fmt"

	"rmtest/internal/statechart"
)

// Generate compiles a validated chart into a Program. It is the code
// generation step of the model-based implementation flow: the resulting
// tables and bytecode preserve the model's structure (states, transition
// priority order, variables) by construction.
func Generate(cc *statechart.Compiled) (*Program, error) {
	p := &Program{
		ChartName:  cc.Chart().Name,
		TickPeriod: cc.Chart().TickPeriod,
		eventID:    make(map[string]int),
		varID:      make(map[string]int),
		stateID:    make(map[string]int),
	}
	for _, e := range cc.Chart().Events {
		p.eventID[e] = len(p.Events)
		p.Events = append(p.Events, e)
	}
	if len(p.Events) > 64 {
		return nil, fmt.Errorf("codegen: more than 64 events (%d); the event mask is a uint64", len(p.Events))
	}
	for _, v := range cc.Declarations() {
		slot := VarSlot{ID: len(p.Vars), Name: v.Name, Kind: v.Kind, Type: v.Type, Init: v.Init}
		p.varID[v.Name] = slot.ID
		p.Vars = append(p.Vars, slot)
	}
	// States: first pass assigns ids in document order.
	var states []statechart.StateInfo
	cc.WalkStates(func(s statechart.StateInfo) {
		p.stateID[s.Name] = len(states)
		states = append(states, s)
	})
	c := &compiler{prog: p}
	for id, s := range states {
		row := StateRow{ID: id, Name: s.Name, Parent: -1, Initial: -1}
		if s.Parent != "" {
			row.Parent = p.stateID[s.Parent]
		}
		if s.Initial != "" {
			row.Initial = p.stateID[s.Initial]
		}
		row.Entry = c.compileAction(s.Entry)
		row.Exit = c.compileAction(s.Exit)
		p.States = append(p.States, row)
	}
	var genErr error
	cc.WalkTransitions(func(t statechart.TransitionInfo) {
		if genErr != nil {
			return
		}
		if t.Index != len(p.Trans) {
			genErr = fmt.Errorf("codegen: transition index %d out of order", t.Index)
			return
		}
		row := TransRow{
			ID:    t.Index,
			From:  p.stateID[t.From],
			To:    p.stateID[t.To],
			Label: t.Label,
		}
		row.Trig = TrigCode{Kind: t.Trig.Kind, N: t.Trig.N}
		if t.Trig.Kind == statechart.TrigEvent {
			row.Trig.Event = p.eventID[t.Trig.Event]
		}
		row.Guard = c.compileExpr(t.Guard)
		row.Action = c.compileAction(t.Action)
		p.Trans = append(p.Trans, row)
		from := &p.States[row.From]
		from.Trans = append(from.Trans, row.ID)
	})
	if genErr != nil {
		return nil, genErr
	}
	if c.err != nil {
		return nil, c.err
	}
	p.InitState = p.stateID[cc.TopInitial()]
	p.Code = c.code
	return p, nil
}

// compiler emits bytecode into a shared pool.
type compiler struct {
	prog *Program
	code []Instr
	err  error
}

func (c *compiler) emit(op Op, a int64) int {
	c.code = append(c.code, Instr{Op: op, A: a})
	return len(c.code) - 1
}

func (c *compiler) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("codegen: "+format, args...)
	}
}

// compileExpr compiles an expression that leaves its value on the stack,
// followed by OpHalt. A nil expression yields an empty CodeRef, which the
// VM treats as "true" for guards. Expressions compile as written, so the
// cost model charges the node count of the source expression.
func (c *compiler) compileExpr(e statechart.Expr) CodeRef {
	if e == nil {
		return CodeRef{}
	}
	pc := len(c.code)
	c.expr(e)
	c.emit(OpHalt, 0)
	return CodeRef{PC: pc, Len: len(c.code) - pc, Nodes: statechart.NodeCount(e)}
}

// compileAction compiles a sequence of assignments followed by OpHalt.
func (c *compiler) compileAction(a statechart.Action) CodeRef {
	if len(a) == 0 {
		return CodeRef{}
	}
	pc := len(c.code)
	for _, as := range a {
		c.expr(as.X)
		slot, ok := c.prog.varID[as.Name]
		if !ok {
			c.fail("assignment to unknown variable %q", as.Name)
			return CodeRef{}
		}
		c.emit(OpStore, int64(slot))
	}
	c.emit(OpHalt, 0)
	return CodeRef{PC: pc, Len: len(c.code) - pc, Nodes: a.NodeCount()}
}

func (c *compiler) expr(e statechart.Expr) {
	switch n := e.(type) {
	case *statechart.NumLit:
		c.emit(OpPush, n.Value)
	case *statechart.BoolLit:
		v := int64(0)
		if n.Value {
			v = 1
		}
		c.emit(OpPush, v)
	case *statechart.Ref:
		slot, ok := c.prog.varID[n.Name]
		if !ok {
			c.fail("reference to unknown variable %q", n.Name)
			return
		}
		c.emit(OpLoad, int64(slot))
	case *statechart.Unary:
		c.expr(n.X)
		switch n.Op {
		case "-":
			c.emit(OpNeg, 0)
		case "!":
			c.emit(OpNot, 0)
		default:
			c.fail("unknown unary operator %q", n.Op)
		}
	case *statechart.Binary:
		switch n.Op {
		case "&&":
			// L, dup; if false jump past R (keeping the 0); else pop, R, bool.
			c.expr(n.L)
			c.emit(OpDup, 0)
			jf := c.emit(OpJmpFalse, 0)
			c.emit(OpPop, 0)
			c.expr(n.R)
			c.emit(OpBool, 0)
			c.code[jf].A = int64(len(c.code))
			return
		case "||":
			c.expr(n.L)
			c.emit(OpDup, 0)
			jt := c.emit(OpJmpTrue, 0)
			c.emit(OpPop, 0)
			c.expr(n.R)
			c.emit(OpBool, 0)
			c.code[jt].A = int64(len(c.code))
			c.emit(OpBool, 0) // normalise the short-circuit value too
			return
		}
		c.expr(n.L)
		c.expr(n.R)
		switch n.Op {
		case "+":
			c.emit(OpAdd, 0)
		case "-":
			c.emit(OpSub, 0)
		case "*":
			c.emit(OpMul, 0)
		case "/":
			c.emit(OpDiv, 0)
		case "%":
			c.emit(OpMod, 0)
		case "==":
			c.emit(OpEq, 0)
		case "!=":
			c.emit(OpNe, 0)
		case "<":
			c.emit(OpLt, 0)
		case "<=":
			c.emit(OpLe, 0)
		case ">":
			c.emit(OpGt, 0)
		case ">=":
			c.emit(OpGe, 0)
		default:
			c.fail("unknown binary operator %q", n.Op)
		}
	case *statechart.Call:
		for _, a := range n.Args {
			c.expr(a)
		}
		switch n.Name {
		case "abs":
			c.emit(OpAbs, 0)
		case "min":
			c.emit(OpMin, 0)
		case "max":
			c.emit(OpMax, 0)
		default:
			c.fail("unknown builtin %q", n.Name)
		}
	default:
		c.fail("unknown expression node %T", e)
	}
}
