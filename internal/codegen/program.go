// Package codegen is the code-generation stage of the model-based
// implementation flow — the stand-in for Simulink Coder /
// RealTimeWorkshop in the paper's toolchain.
//
// It compiles a validated statechart into a Program: flattened state and
// transition tables plus guard/action bytecode for a small stack VM. The
// Program has exactly the structure the paper attributes to generated C
// code ("transition tables, boolean (or integer) variables to represent
// input and output occurrences, and execution logic"), and Exec runs it
// with an explicit execution-cost model so that CODE(M)-delay and
// per-transition delays are real, measurable quantities on the simulated
// platform.
//
// The package can also emit readable Go source for a chart (EmitGo),
// mirroring how the real toolchain hands generated source to the platform
// integrator.
package codegen

import (
	"fmt"
	"strings"
	"time"

	"rmtest/internal/statechart"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes of the guard/action VM.
const (
	OpHalt  Op = iota
	OpPush     // push immediate A
	OpLoad     // push vars[A]
	OpStore    // vars[A] = pop
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpNot
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAbs
	OpMin
	OpMax
	OpJmp      // pc = A
	OpJmpFalse // if pop == 0 then pc = A (used by && / || short-circuit)
	OpJmpTrue  // if pop != 0 then pc = A
	OpDup      // duplicate top of stack
	OpPop      // discard top of stack
	OpBool     // normalise top of stack to 0/1
)

var opNames = [...]string{
	OpHalt: "halt", OpPush: "push", OpLoad: "load", OpStore: "store",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg: "neg", OpNot: "not",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpAbs: "abs", OpMin: "min", OpMax: "max",
	OpJmp: "jmp", OpJmpFalse: "jmpf", OpJmpTrue: "jmpt",
	OpDup: "dup", OpPop: "pop", OpBool: "bool",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one VM instruction.
type Instr struct {
	Op Op
	A  int64 // immediate / slot index / jump target
}

// CodeRef locates a compiled fragment in the shared code pool. Len == 0
// means "no code" (empty guard or action).
type CodeRef struct {
	PC    int
	Len   int
	Nodes int // AST node count, input to the cost model
}

// TrigCode is the compiled form of a transition trigger.
type TrigCode struct {
	Kind  statechart.TriggerKind
	Event int   // event id for TrigEvent
	N     int64 // threshold for temporal kinds
}

// StateRow is one row of the generated state table.
type StateRow struct {
	ID      int
	Name    string
	Parent  int  // -1 for top level
	Initial int  // -1 for leaves; otherwise the default child's id
	History bool // shallow history junction (composites only)
	Entry   CodeRef
	Exit    CodeRef
	During  CodeRef
	// Trans lists the ids of this state's outgoing transitions in
	// priority (document) order.
	Trans []int
}

// TransRow is one row of the generated transition table.
type TransRow struct {
	ID     int
	From   int
	To     int
	Trig   TrigCode
	Guard  CodeRef
	Action CodeRef
	Label  string
}

// VarSlot describes one slot of the generated variable block.
type VarSlot struct {
	ID   int
	Name string
	Kind statechart.VarKind
	Type statechart.Type
	Init int64
}

// Program is the generated-code artifact: CODE(M).
type Program struct {
	ChartName string
	// TickPeriod is the physical period of one E_CLK tick, carried over
	// from the model so the platform integration can step the chart at
	// the model's base rate (several ticks per task invocation when the
	// task period is longer than the tick).
	TickPeriod time.Duration
	Events     []string // event id -> name
	Vars       []VarSlot
	States     []StateRow
	Trans      []TransRow
	Code       []Instr
	InitState  int // top-level initial state id

	eventID map[string]int
	varID   map[string]int
	stateID map[string]int
}

// EventID resolves an event name to its id; ok is false for unknown names.
func (p *Program) EventID(name string) (int, bool) {
	id, ok := p.eventID[name]
	return id, ok
}

// VarID resolves a variable name to its slot; ok is false for unknown
// names.
func (p *Program) VarID(name string) (int, bool) {
	id, ok := p.varID[name]
	return id, ok
}

// StateID resolves a state name to its id.
func (p *Program) StateID(name string) (int, bool) {
	id, ok := p.stateID[name]
	return id, ok
}

// Disassemble renders the program's tables and bytecode as text. The
// output is deterministic and is used in tests and by cmd/chartgen.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s: %d states, %d transitions, %d vars, %d events, %d instrs\n",
		p.ChartName, len(p.States), len(p.Trans), len(p.Vars), len(p.Events), len(p.Code))
	for _, v := range p.Vars {
		fmt.Fprintf(&b, "var %2d %-8s %-5s %s = %d\n", v.ID, v.Kind, v.Type, v.Name, v.Init)
	}
	for i, e := range p.Events {
		fmt.Fprintf(&b, "event %2d %s\n", i, e)
	}
	for _, s := range p.States {
		fmt.Fprintf(&b, "state %2d %-20s parent=%2d initial=%2d trans=%v\n",
			s.ID, s.Name, s.Parent, s.Initial, s.Trans)
	}
	for _, t := range p.Trans {
		fmt.Fprintf(&b, "trans %2d %-30s %d->%d trig=%s guard@%d+%d action@%d+%d\n",
			t.ID, t.Label, t.From, t.To, trigString(t, p), t.Guard.PC, t.Guard.Len, t.Action.PC, t.Action.Len)
	}
	for pc, in := range p.Code {
		fmt.Fprintf(&b, "%4d  %-5s %d\n", pc, in.Op, in.A)
	}
	return b.String()
}

func trigString(t TransRow, p *Program) string {
	switch t.Trig.Kind {
	case statechart.TrigNone:
		return "-"
	case statechart.TrigEvent:
		return p.Events[t.Trig.Event]
	default:
		return fmt.Sprintf("%s(%d)", t.Trig.Kind, t.Trig.N)
	}
}
