// Package lint is the static-analysis layer of the toolchain: it analyzes
// a statechart model together with its compiled codegen.Program bytecode
// and reports findings before any simulation runs — the static counterpart
// of the dynamic R-M testing flow.
//
// Chart-level analyses: unreachable states and transitions, overlapping
// (nondeterministic) guards on a common source state, use-before-def and
// dead writes of chart variables, temporal-constant sanity, and
// missing-default/sink-state detection. Bytecode-level analyses:
// stack-discipline verification of every compiled fragment, division- and
// modulo-by-zero reachability via an interval abstract interpretation of
// the guard/action bytecode, and a static per-transition and per-step
// WCET bound derived from the execution-cost model. The WCET bounds feed
// internal/rta as task inputs (WCETReport.Task), so response-time
// analysis can run from static inputs alone, and they are sound
// over-approximations of the dynamically measured CODE(M)- and
// transition-delays (asserted by the repository's cross-check tests).
package lint

import (
	"fmt"
	"sort"
	"strings"

	"rmtest/internal/codegen"
	"rmtest/internal/statechart"
)

// Severity ranks a finding.
type Severity int

// Severities. Fatal findings make a program rejectable (codegen's strict
// mode and the CLI's exit status); Warn findings flag likely defects;
// Info findings are stylistic.
const (
	Info Severity = iota
	Warn
	Fatal
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Fatal:
		return "fatal"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Finding codes. Every code is triggered at least once by the test
// suite's bad-chart fixtures.
const (
	// CodeUnreachableState: no path from the initial configuration
	// enters the state.
	CodeUnreachableState = "unreachable-state"
	// CodeUnreachableTransition: the transition can never fire — its
	// source is unreachable, its guard is statically false, or an
	// earlier transition on the same state shadows it.
	CodeUnreachableTransition = "unreachable-transition"
	// CodeNondetGuards: two transitions on one source state have
	// overlapping triggers and simultaneously satisfiable guards; the
	// runtime resolves the race by document order, which is usually an
	// unintended dependency.
	CodeNondetGuards = "nondeterministic-guards"
	// CodeReadUnwritten: a local variable is read but never assigned;
	// it is a constant in disguise (use-before-def over every path).
	CodeReadUnwritten = "read-unwritten-local"
	// CodeDeadWrite: a local variable is assigned but never read.
	CodeDeadWrite = "dead-local-write"
	// CodeUnusedEvent: a declared event triggers no transition.
	CodeUnusedEvent = "unused-event"
	// CodeUnusedInput: a declared input variable is never read.
	CodeUnusedInput = "unused-input"
	// CodeUnwrittenOutput: a declared output variable is never
	// assigned, so the platform can only ever observe its initial value.
	CodeUnwrittenOutput = "unwritten-output"
	// CodeTemporalConstant: a before/after/at threshold is degenerate
	// (non-positive, or spanning an implausible horizon at the chart's
	// E_CLK tick).
	CodeTemporalConstant = "temporal-constant"
	// CodeSinkState: a leaf configuration has no outgoing transitions
	// at any scope level; the chart deadlocks there.
	CodeSinkState = "sink-state"
	// CodeImplicitInitial: a composite (or the chart itself) relies on
	// the implicit first-child default instead of naming its initial
	// state.
	CodeImplicitInitial = "implicit-initial"
	// CodeLivelock: a cycle of always/instantly-enabled transitions can
	// chain within a single step until the MaxChain guard trips.
	CodeLivelock = "livelock-cycle"
	// CodeStackBalance: a compiled fragment violates stack discipline —
	// underflow, imbalance across join points, a jump out of the
	// fragment, an unknown opcode, or a wrong depth at halt.
	CodeStackBalance = "stack-balance"
	// CodeDivByZero: a division or modulo whose divisor may (Warn) or
	// must (Fatal) be zero is reachable.
	CodeDivByZero = "div-by-zero"
	// CodeWCETExceedsTick: a single transition's static WCET exceeds
	// the chart's E_CLK tick period, so one transition can consume more
	// platform time than the model step it belongs to.
	CodeWCETExceedsTick = "wcet-exceeds-tick"
)

// Finding is one static-analysis diagnostic.
type Finding struct {
	Code     string
	Severity Severity
	// Where locates the finding: a state, transition label, variable or
	// fragment name.
	Where  string
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("%-5s %-24s %-28s %s", f.Severity, f.Code, f.Where, f.Detail)
}

// Report is the result of analyzing one chart.
type Report struct {
	Chart    string
	Findings []Finding
	WCET     WCETReport
}

// Fatal returns the fatal findings.
func (r *Report) Fatal() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == Fatal {
			out = append(out, f)
		}
	}
	return out
}

// Count returns the number of findings at the given severity.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == s {
			n++
		}
	}
	return n
}

// String renders the findings and the WCET summary as human text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lint %s: %d findings (%d fatal, %d warn, %d info)\n",
		r.Chart, len(r.Findings), r.Count(Fatal), r.Count(Warn), r.Count(Info))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	b.WriteString(r.WCET.String())
	return b.String()
}

// analysis carries shared inputs across the analysis passes.
type analysis struct {
	chart *statechart.Chart
	cc    *statechart.Compiled
	prog  *codegen.Program
	cost  codegen.CostModel

	findings []Finding
	// reachable[stateID] after the reachability pass.
	reachable []bool
	// storedSlots[varID]: some OpStore targets the slot anywhere in the
	// program (used to narrow never-written variables to their initial
	// value in the interval domain).
	storedSlots []bool

	childIDs   [][]int                 // lazily built child lists per state
	guardCache map[int]interval        // guard interval per transition id
	guardExprs map[int]statechart.Expr // guard AST per transition id (chart runs only)
}

func (a *analysis) add(code string, sev Severity, where, format string, args ...any) {
	a.findings = append(a.findings, Finding{
		Code: code, Severity: sev, Where: where, Detail: fmt.Sprintf(format, args...),
	})
}

// Analyze compiles the chart, generates its Program and runs every
// static analysis. Structural errors (the ones statechart.Compile and
// codegen.Generate already reject) are returned as errors, not findings.
func Analyze(c *statechart.Chart, cost codegen.CostModel) (*Report, error) {
	cc, err := c.Compile()
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Generate(cc)
	if err != nil {
		return nil, err
	}
	return AnalyzeCompiled(c, cc, prog, cost), nil
}

// AnalyzeCompiled runs the analyses on an already-compiled chart and its
// generated program. The chart pointer may be nil when only the
// bytecode-level analyses are wanted.
func AnalyzeCompiled(c *statechart.Chart, cc *statechart.Compiled, prog *codegen.Program, cost codegen.CostModel) *Report {
	a := &analysis{chart: c, cc: cc, prog: prog, cost: cost}
	a.scanStores()
	a.checkReachability()
	a.checkFragments()
	a.checkGuards()
	a.checkVariables()
	a.checkTemporal()
	a.checkStructure()
	wcet := computeWCET(a)
	a.checkWCET(wcet)
	sortFindings(a.findings)
	return &Report{Chart: prog.ChartName, Findings: a.findings, WCET: wcet}
}

// AnalyzeProgram runs only the bytecode-level analyses (stack discipline,
// interval-domain division checks, WCET) on a bare Program — the entry
// point for verifying hand-built or externally produced bytecode.
func AnalyzeProgram(prog *codegen.Program, cost codegen.CostModel) *Report {
	a := &analysis{prog: prog, cost: cost}
	a.scanStores()
	a.reachable = make([]bool, len(prog.States))
	for i := range a.reachable {
		a.reachable[i] = true // no chart structure: assume everything live
	}
	a.checkFragments()
	wcet := computeWCET(a)
	a.checkWCET(wcet)
	sortFindings(a.findings)
	return &Report{Chart: prog.ChartName, Findings: a.findings, WCET: wcet}
}

// scanStores records which variable slots are ever stored to.
func (a *analysis) scanStores() {
	a.storedSlots = make([]bool, len(a.prog.Vars))
	for _, in := range a.prog.Code {
		if in.Op == codegen.OpStore && in.A >= 0 && int(in.A) < len(a.storedSlots) {
			a.storedSlots[in.A] = true
		}
	}
}

// varInterval returns the abstract value of a variable slot: booleans are
// [0,1]; never-written non-input integers are pinned to their initial
// value; everything else is unbounded.
func (a *analysis) varInterval(slot int) interval {
	v := a.prog.Vars[slot]
	if v.Kind != statechart.Input && !a.storedSlots[slot] {
		return interval{v.Init, v.Init}
	}
	if v.Type == statechart.Bool {
		return interval{0, 1}
	}
	return topInterval
}

// fragment pairs a CodeRef with its role for the fragment passes.
type fragment struct {
	ref   codegen.CodeRef
	kind  fragKind
	where string
	live  bool // owning state / transition reachable
}

type fragKind int

const (
	fragGuard  fragKind = iota // expression: leaves one value
	fragAction                 // assignments: leaves nothing
)

// fragments enumerates every compiled fragment with its role.
func (a *analysis) fragments() []fragment {
	var out []fragment
	add := func(ref codegen.CodeRef, kind fragKind, where string, live bool) {
		if ref.Len > 0 {
			out = append(out, fragment{ref: ref, kind: kind, where: where, live: live})
		}
	}
	for i := range a.prog.States {
		s := &a.prog.States[i]
		live := a.reachable == nil || a.reachable[s.ID]
		add(s.Entry, fragAction, "entry of "+s.Name, live)
		add(s.Exit, fragAction, "exit of "+s.Name, live)
	}
	for i := range a.prog.Trans {
		t := &a.prog.Trans[i]
		live := a.reachable == nil || a.reachable[t.From]
		add(t.Guard, fragGuard, "guard of "+t.Label, live)
		add(t.Action, fragAction, "action of "+t.Label, live)
	}
	return out
}

// checkFragments verifies stack discipline and division safety of every
// compiled fragment.
func (a *analysis) checkFragments() {
	for _, fr := range a.fragments() {
		res := a.interpret(fr.ref, fr.kind)
		for _, d := range res.faults {
			a.add(CodeStackBalance, Fatal, fr.where, "%s", d)
		}
		if res.divMustZero {
			a.add(CodeDivByZero, Fatal, fr.where, "division or modulo by a divisor that is always zero")
		} else if res.divMayZero && fr.live {
			a.add(CodeDivByZero, Warn, fr.where, "division or modulo by a divisor that may be zero")
		}
	}
}

// guardValue abstractly evaluates a transition guard; an empty guard is
// always true. Values are cached per transition id.
func (a *analysis) guardValue(t *codegen.TransRow) interval {
	if t.Guard.Len == 0 {
		return interval{1, 1}
	}
	if v, ok := a.guardCache[t.ID]; ok {
		return v
	}
	res := a.interpret(t.Guard, fragGuard)
	v := res.value
	if len(res.faults) > 0 {
		v = topInterval // broken fragment: assume anything
	}
	if a.guardCache == nil {
		a.guardCache = make(map[int]interval)
	}
	a.guardCache[t.ID] = v
	return v
}

func (a *analysis) guardAlwaysFalse(t *codegen.TransRow) bool {
	v := a.guardValue(t)
	return v.lo == 0 && v.hi == 0
}

func (a *analysis) guardAlwaysTrue(t *codegen.TransRow) bool {
	return !a.guardValue(t).contains(0)
}

func (a *analysis) guardSatisfiable(t *codegen.TransRow) bool {
	v := a.guardValue(t)
	return !(v.lo == 0 && v.hi == 0)
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		if fs[i].Code != fs[j].Code {
			return fs[i].Code < fs[j].Code
		}
		return fs[i].Where < fs[j].Where
	})
}
