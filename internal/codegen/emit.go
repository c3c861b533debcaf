package codegen

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rmtest/internal/statechart"
)

// EmitGo writes readable Go source implementing the chart's step function,
// mirroring how RealTimeWorkshop hands generated C to the platform
// integrator. The emitted file is self-contained (package pkg, no
// imports, the definitions of the helpers its code calls) and
// deterministic; it exists to make the generated-code artifact
// inspectable — the simulated platform executes the bytecode Program,
// which is semantically identical. It returns an error, and writes
// nothing, when two of the chart's names map to one Go identifier.
func EmitGo(w io.Writer, cc *statechart.Compiled, pkg string) error {
	p, err := Generate(cc)
	if err != nil {
		return err
	}
	ident := sanitize(p.ChartName) // sanitize upper-cases the first rune
	if err := checkIdents(p, ident); err != nil {
		return err
	}
	b := &emitter{w: w}
	b.f("// Code generated from chart %q by rmtest/internal/codegen. DO NOT EDIT.\n", p.ChartName)
	b.f("package %s\n\n", pkg)

	b.f("// %sState enumerates the chart states.\n", ident)
	b.f("type %sState int\n\nconst (\n", ident)
	for _, s := range p.States {
		b.f("\t%s%s %sState = %d\n", ident, sanitize(s.Name), ident, s.ID)
	}
	b.f(")\n\n")

	b.f("// %sEvent enumerates the chart input events.\n", ident)
	b.f("type %sEvent uint64\n\nconst (\n", ident)
	for i, e := range p.Events {
		b.f("\tEv%s %sEvent = 1 << %d\n", sanitize(e), ident, i)
	}
	b.f(")\n\n")

	b.f("// %s is the generated chart context: the variable block and the\n", ident)
	b.f("// active-state register of CODE(M).\n")
	b.f("type %s struct {\n", ident)
	b.f("\tState %sState\n", ident)
	b.f("\ttick  int64\n")
	b.f("\tentry [%d]int64\n", len(p.States))
	for _, v := range p.Vars {
		b.f("\t%s int64 // %s %s\n", sanitize(v.Name), v.Kind, v.Type)
	}
	b.f("}\n\n")

	b.f("// New%s returns a context in the initial configuration.\n", ident)
	b.f("func New%s() *%s {\n\tc := &%s{}\n\tc.Reset()\n\treturn c\n}\n\n", ident, ident, ident)

	b.f("// Reset re-enters the initial configuration.\n")
	b.f("func (c *%s) Reset() {\n", ident)
	b.f("\t*c = %s{}\n", ident)
	for _, v := range p.Vars {
		if v.Init != 0 {
			b.f("\tc.%s = %d\n", sanitize(v.Name), v.Init)
		}
	}
	// Enter initial chain.
	sid := p.InitState
	for {
		b.emitActionInline(p, p.States[sid].Entry, "\t")
		if p.States[sid].Initial < 0 {
			break
		}
		sid = p.States[sid].Initial
	}
	b.f("\tc.State = %s%s\n", ident, sanitize(p.States[sid].Name))
	b.f("}\n\n")

	b.f("// Step executes one E_CLK tick with the given events.\n")
	b.f("// It returns the number of transitions taken.\n")
	b.f("func (c *%s) Step(events %sEvent) int {\n", ident, ident)
	b.f("\ttaken := 0\n")
	b.f("\tfor i := 0; i < %d; i++ {\n", statechart.MaxChain)
	b.f("\t\tswitch c.State {\n")
	// Leaf states only can be active.
	for _, s := range p.States {
		if s.Initial >= 0 {
			continue // composite, never an active leaf
		}
		b.f("\t\tcase %s%s:\n", ident, sanitize(s.Name))
		wrote := false
		for sid := s.ID; sid >= 0; sid = p.States[sid].Parent {
			for _, tid := range p.States[sid].Trans {
				t := p.Trans[tid]
				b.emitTransition(p, ident, s, t)
				wrote = true
			}
		}
		if !wrote {
			b.f("\t\t\t// no outgoing transitions\n")
		}
		b.f("\t\t\tgoto stable\n")
	}
	b.f("\t\tdefault:\n\t\t\tgoto stable\n")
	b.f("\t\t}\n")
	b.f("\t}\n")
	b.f("stable:\n")
	b.f("\tc.tick++\n")
	b.f("\treturn taken\n")
	b.f("}\n")
	for h, def := range runtimeHelpers {
		if b.calls&(1<<h) != 0 {
			b.f("\n%s", def.src)
		}
	}
	return b.err
}

// checkIdents returns an error naming two declarations of p that map to
// one Go identifier of the emitted file: at package scope, the chart's
// types, its constructor and its state and event constants; in the chart
// struct, the State register, the Reset and Step methods and the
// variables. The struct's other fields are lower-case, so no variable
// maps onto them.
func checkIdents(p *Program, ident string) error {
	var err error
	claim := func(scope map[string]string, id, decl string) {
		if prev, dup := scope[id]; dup && err == nil {
			err = fmt.Errorf("codegen: %s and %s both map to Go identifier %s", prev, decl, id)
		}
		scope[id] = decl
	}
	pkg := map[string]string{
		ident:           "the chart type",
		ident + "State": "the state type",
		ident + "Event": "the event type",
		"New" + ident:   "the constructor",
	}
	for _, s := range p.States {
		claim(pkg, ident+sanitize(s.Name), fmt.Sprintf("state %q", s.Name))
	}
	for _, e := range p.Events {
		claim(pkg, "Ev"+sanitize(e), fmt.Sprintf("event %q", e))
	}
	members := map[string]string{
		"State": "the active-state register",
		"Reset": "the Reset method",
		"Step":  "the Step method",
	}
	for _, v := range p.Vars {
		claim(members, sanitize(v.Name), fmt.Sprintf("variable %q", v.Name))
	}
	return err
}

// emitTransition writes the guard check and firing body for transition t
// evaluated while leaf s is active.
func (b *emitter) emitTransition(p *Program, ident string, s StateRow, t TransRow) {
	conds := []string{}
	switch t.Trig.Kind {
	case statechart.TrigEvent:
		conds = append(conds, fmt.Sprintf("events&Ev%s != 0", sanitize(p.Events[t.Trig.Event])))
	case statechart.TrigAfter:
		conds = append(conds, fmt.Sprintf("c.tick-c.entry[%d] >= %d", t.From, t.Trig.N))
	case statechart.TrigBefore:
		conds = append(conds, fmt.Sprintf("c.tick-c.entry[%d] < %d", t.From, t.Trig.N))
	case statechart.TrigAt:
		conds = append(conds, fmt.Sprintf("c.tick-c.entry[%d] == %d", t.From, t.Trig.N))
	}
	if t.Guard.Len > 0 {
		conds = append(conds, b.exprGo(p, t.Guard))
	}
	cond := strings.Join(conds, " && ")
	if cond == "" {
		cond = "true"
	}
	b.f("\t\t\tif %s { // %s\n", cond, t.Label)
	if t.Trig.Kind == statechart.TrigEvent {
		b.f("\t\t\t\tevents &^= Ev%s\n", sanitize(p.Events[t.Trig.Event]))
	}
	// Exit actions from the leaf up to the source scope.
	exitTo := p.States[t.From].Parent
	for sid := s.ID; sid >= 0 && sid != exitTo; sid = p.States[sid].Parent {
		b.emitActionInline(p, p.States[sid].Exit, "\t\t\t\t")
	}
	b.emitActionInline(p, t.Action, "\t\t\t\t")
	// Entry chain into the target.
	var chain []int
	for sid := t.To; sid >= 0 && sid != exitTo; sid = p.States[sid].Parent {
		chain = append(chain, sid)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		sid := chain[i]
		b.f("\t\t\t\tc.entry[%d] = c.tick\n", sid)
		b.emitActionInline(p, p.States[sid].Entry, "\t\t\t\t")
	}
	leaf := t.To
	for p.States[leaf].Initial >= 0 {
		leaf = p.States[leaf].Initial
		b.f("\t\t\t\tc.entry[%d] = c.tick\n", leaf)
		b.emitActionInline(p, p.States[leaf].Entry, "\t\t\t\t")
	}
	b.f("\t\t\t\tc.State = %s%s\n", ident, sanitize(p.States[leaf].Name))
	b.f("\t\t\t\ttaken++\n")
	b.f("\t\t\t\tcontinue\n")
	b.f("\t\t\t}\n")
}

// emitter accumulates output, the first write error and the set of
// runtimeHelpers the emitted code calls (bit h for runtimeHelpers[h]).
type emitter struct {
	w     io.Writer
	err   error
	calls uint
}

func (b *emitter) f(format string, args ...any) {
	if b.err != nil {
		return
	}
	_, b.err = fmt.Fprintf(b.w, format, args...)
}

// emitActionInline decompiles an action fragment back to Go assignments.
func (b *emitter) emitActionInline(p *Program, ref CodeRef, indent string) {
	if ref.Len == 0 {
		return
	}
	// Decompile the stack code: replay symbolically.
	stmts, ok := b.decompile(p, ref)
	if !ok {
		b.f("%s// <unrepresentable action>\n", indent)
		return
	}
	for _, s := range stmts {
		b.f("%s%s\n", indent, s)
	}
}

// exprGo decompiles a guard fragment to a Go boolean expression.
func (b *emitter) exprGo(p *Program, ref CodeRef) string {
	stmts, ok := b.decompile(p, ref)
	if !ok || len(stmts) != 1 {
		return "true /* <unrepresentable guard> */"
	}
	return stmts[0] + " != 0"
}

// call returns a call of runtimeHelpers[h] and records it in b.calls.
func (b *emitter) call(h int, args ...string) string {
	b.calls |= 1 << h
	return runtimeHelpers[h].name + "(" + strings.Join(args, ", ") + ")"
}

// decompile symbolically executes a fragment, producing Go statements.
// Assignments become "c.Var = expr"; a trailing value becomes a bare
// expression string.
func (b *emitter) decompile(p *Program, ref CodeRef) ([]string, bool) {
	var st []string
	var out []string
	pop := func() string {
		s := st[len(st)-1]
		st = st[:len(st)-1]
		return s
	}
	bin := func(op string) {
		r := pop()
		l := pop()
		st = append(st, "("+l+" "+op+" "+r+")")
	}
	cmp := func(op string) {
		r := pop()
		l := pop()
		st = append(st, b.call(helperB2i, l+" "+op+" "+r))
	}
	pc := ref.PC
	end := ref.PC + ref.Len
	for pc < end {
		in := p.Code[pc]
		pc++
		switch in.Op {
		case OpHalt:
			pc = end
		case OpPush:
			st = append(st, fmt.Sprintf("%d", in.A))
		case OpLoad:
			st = append(st, "c."+sanitize(p.Vars[in.A].Name))
		case OpStore:
			out = append(out, "c."+sanitize(p.Vars[in.A].Name)+" = "+pop())
		case OpAdd:
			bin("+")
		case OpSub:
			bin("-")
		case OpMul:
			bin("*")
		case OpDiv:
			bin("/")
		case OpMod:
			bin("%")
		case OpNeg:
			st = append(st, "(-"+pop()+")")
		case OpNot:
			st = append(st, b.call(helperB2i, pop()+" == 0"))
		case OpEq:
			cmp("==")
		case OpNe:
			cmp("!=")
		case OpLt:
			cmp("<")
		case OpLe:
			cmp("<=")
		case OpGt:
			cmp(">")
		case OpGe:
			cmp(">=")
		case OpAbs:
			st = append(st, b.call(helperAbsi, pop()))
		case OpMin:
			r := pop()
			st = append(st, b.call(helperMini, pop(), r))
		case OpMax:
			r := pop()
			st = append(st, b.call(helperMaxi, pop(), r))
		case OpDup, OpPop, OpJmp, OpJmpFalse, OpJmpTrue, OpBool:
			// Short-circuit scaffolding: reconstruct && / || from the
			// canonical shapes the compiler emits.
			if ok := b.decompileShortCircuit(p, &pc, end, &st, in); !ok {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	if len(st) == 1 {
		out = append(out, st[0])
	} else if len(st) != 0 {
		return nil, false
	}
	return out, true
}

// decompileShortCircuit matches the fixed instruction shapes emitted for
// && and || and rewrites them as b2i(l != 0 && r != 0) style expressions.
func (b *emitter) decompileShortCircuit(p *Program, pc *int, end int, st *[]string, first Instr) bool {
	// The compiler emits: dup; jmpf/jmpt T; pop; <R>; bool; [bool at T].
	if first.Op != OpDup {
		// A standalone bool normalisation (from ||'s join point).
		if first.Op == OpBool {
			s := *st
			s[len(s)-1] = b.call(helperB2i, s[len(s)-1]+" != 0")
			return true
		}
		return false
	}
	if *pc >= end {
		return false
	}
	j := p.Code[*pc]
	*pc++
	if j.Op != OpJmpFalse && j.Op != OpJmpTrue {
		return false
	}
	if *pc >= end || p.Code[*pc].Op != OpPop {
		return false
	}
	*pc++
	// Decompile the right-hand side up to the jump target.
	rhsRef := CodeRef{PC: *pc, Len: int(j.A) - *pc}
	rhs, ok := b.decompile(p, rhsRef)
	if !ok || len(rhs) != 1 {
		return false
	}
	*pc = int(j.A)
	s := *st
	l := s[len(s)-1]
	op := "&&"
	if j.Op == OpJmpTrue {
		op = "||"
	}
	s[len(s)-1] = b.call(helperB2i, "("+l+" != 0) "+op+" ("+rhs[0]+" != 0)")
	return true
}

func sanitize(s string) string {
	var b strings.Builder
	up := true
	for _, r := range s {
		if r == '_' || r == '-' || r == ' ' {
			up = true
			continue
		}
		if up {
			b.WriteString(strings.ToUpper(string(r)))
			up = false
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Indices into runtimeHelpers.
const (
	helperB2i = iota
	helperAbsi
	helperMini
	helperMaxi
)

// runtimeHelpers are the functions the emitted code may call, with their
// definitions, in the order EmitGo appends the ones it calls.
var runtimeHelpers = [...]struct{ name, src string }{
	helperB2i: {"b2i", `func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
`},
	helperAbsi: {"absi", `func absi(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
`},
	helperMini: {"mini", `func mini(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
`},
	helperMaxi: {"maxi", `func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
`},
}

// SortedVarNames returns the program's variable names of the given kind,
// sorted, for stable reporting.
func (p *Program) SortedVarNames(kind statechart.VarKind) []string {
	var names []string
	for _, v := range p.Vars {
		if v.Kind == kind {
			names = append(names, v.Name)
		}
	}
	sort.Strings(names)
	return names
}
