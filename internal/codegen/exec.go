package codegen

import (
	"fmt"
	"sort"
	"time"

	"rmtest/internal/statechart"
)

// ExecEnv provides platform services to the generated code. On the
// simulated platform it is implemented by an adapter over rtos.Task, so
// the cost of running CODE(M) is charged to the task that invokes it; a
// nil ExecEnv executes in zero time (used for differential testing
// against the model interpreter). The executor's state never depends on
// when a charge runs, and it reads the clock only where a listener
// observes a transition start or finish, so an ExecEnv may owe the
// charges made between two reads and run them as one burst.
type ExecEnv interface {
	// Compute charges d of CPU time to the executing task, now or owed
	// until the next Now.
	Compute(d time.Duration)
	// Now returns the current virtual time, once every charge made
	// before the call has run.
	Now() time.Duration
}

// Listener observes transition execution inside the generated step
// function. M-testing attaches here to measure the paper's
// Transition-Delays: the time from start to finish of each transition.
// TransitionFinish additionally reports the output variables the
// transition wrote, so o-events can be timestamped at the exact instant
// CODE(M) produced them.
type Listener interface {
	TransitionStart(id int, label string, at time.Duration)
	TransitionFinish(id int, label string, at time.Duration, changed []statechart.VarChange)
}

// CostModel maps generated-code structure to execution time on the target
// platform. Every charge goes to ExecEnv.Compute and is preemptible by the
// RTOS like a real instruction stream. The simulated platform merges the
// charges made between two observation points (a transition start or
// finish at the M level, the end of an invocation) into one burst, and
// issues them one by one only while the task cannot merge bursts
// (rtos.Task.Coalescible). Entering the initial configuration charges
// nothing.
type CostModel struct {
	// StepBase is charged once per step invocation (input latching, state
	// lookup, scan overhead).
	StepBase time.Duration
	// PerGuardNode is charged per expression AST node for every guard
	// evaluation attempt.
	PerGuardNode time.Duration
	// PerActionNode is charged per action AST node executed (entry, exit
	// and transition actions).
	PerActionNode time.Duration
	// PerTransition is charged per taken transition on top of its action
	// costs (table row update, active-state bookkeeping).
	PerTransition time.Duration
}

// DefaultCostModel approximates a small micro-controller executing
// generated C: tens of microseconds per step and per transition. The
// absolute values are configuration; the testing framework's conclusions
// depend only on their order of magnitude relative to task periods.
func DefaultCostModel() CostModel {
	return CostModel{
		StepBase:      20 * time.Microsecond,
		PerGuardNode:  2 * time.Microsecond,
		PerActionNode: 3 * time.Microsecond,
		PerTransition: 40 * time.Microsecond,
	}
}

// ZeroCostModel charges nothing; execution is instantaneous in virtual
// time. Useful for functional differential tests.
func ZeroCostModel() CostModel { return CostModel{} }

// Exec executes a Program. It is the runtime shape of CODE(M): a variable
// block, an active-state register and a step function driven by the
// platform's tick.
type Exec struct {
	prog     *Program
	cost     CostModel
	env      ExecEnv
	listener Listener

	vars      []int64
	active    int // active leaf state id
	entryTick []int64
	tick      int64
	stack     []int64

	// Output-diff scratch: outIDs lists the output var slots sorted by
	// name (the order VarChange diffs are reported in), and outStep /
	// outFire are the reusable before-value snapshots for Step and fire —
	// two buffers because fire snapshots while Step's snapshot is live.
	outIDs  []int
	outStep []int64
	outFire []int64

	steps       uint64
	transitions uint64
	elided      uint64

	// charge sums the cost-model charges of the step in progress; idle
	// marks a finished Step(0) that took no transition and raised no
	// error, so SkipIdle may repeat it.
	charge time.Duration
	idle   bool
}

// NewExec creates an executor in the program's initial configuration.
// env and listener may be nil.
func NewExec(p *Program, cost CostModel, env ExecEnv, listener Listener) *Exec {
	e := &Exec{
		prog:      p,
		cost:      cost,
		env:       env,
		listener:  listener,
		vars:      make([]int64, len(p.Vars)),
		entryTick: make([]int64, len(p.States)),
		stack:     make([]int64, 0, 16),
	}
	for i, v := range p.Vars {
		if v.Kind == statechart.Output {
			e.outIDs = append(e.outIDs, i)
		}
	}
	sort.Slice(e.outIDs, func(a, b int) bool {
		return p.Vars[e.outIDs[a]].Name < p.Vars[e.outIDs[b]].Name
	})
	e.outStep = make([]int64, len(e.outIDs))
	e.outFire = make([]int64, len(e.outIDs))
	e.Reset()
	return e
}

// Reset returns the executor to the initial configuration.
func (e *Exec) Reset() {
	for i, v := range e.prog.Vars {
		e.vars[i] = v.Init
	}
	clear(e.entryTick)
	e.tick = 0
	e.steps = 0
	e.elided = 0
	e.transitions = 0
	e.idle = false
	// Generated code's initialise function runs before the platform
	// schedules any task, so entering the initial configuration charges
	// no cost.
	env := e.env
	e.env = nil
	e.enterFrom(e.prog.InitState)
	e.env = env
}

// Program returns the executed program.
func (e *Exec) Program() *Program { return e.prog }

// ActiveState returns the name of the active leaf state.
func (e *Exec) ActiveState() string { return e.prog.States[e.active].Name }

// Tick returns the number of ticks executed, SkipIdle's included.
func (e *Exec) Tick() int64 { return e.tick }

// Steps returns the number of ticks executed, SkipIdle's included.
func (e *Exec) Steps() uint64 { return e.steps }

// Elided returns the number of ticks SkipIdle advanced without running
// the step function; Steps() - Elided() is the number of Step calls.
func (e *Exec) Elided() uint64 { return e.elided }

// TransitionsTaken returns the total transitions fired.
func (e *Exec) TransitionsTaken() uint64 { return e.transitions }

// Get returns a variable value by name.
func (e *Exec) Get(name string) int64 {
	id, ok := e.prog.VarID(name)
	if !ok {
		panic(fmt.Sprintf("codegen: Get of unknown variable %q", name))
	}
	return e.vars[id]
}

// SetInput writes an input variable, as the platform's input-interfacing
// code does before invoking the step function.
func (e *Exec) SetInput(name string, v int64) {
	id, ok := e.prog.VarID(name)
	if !ok || e.prog.Vars[id].Kind != statechart.Input {
		panic(fmt.Sprintf("codegen: SetInput of non-input %q", name))
	}
	e.vars[id] = v
}

// Vars returns a copy of the variable valuation keyed by name.
func (e *Exec) Vars() map[string]int64 {
	out := make(map[string]int64, len(e.vars))
	for i, v := range e.prog.Vars {
		out[v.Name] = e.vars[i]
	}
	return out
}

func (e *Exec) compute(d time.Duration) {
	e.charge += d
	if e.env != nil && d > 0 {
		e.env.Compute(d)
	}
}

func (e *Exec) now() time.Duration {
	if e.env != nil {
		return e.env.Now()
	}
	return 0
}

// StepResult mirrors statechart.StepResult for the generated code.
type StepResult struct {
	Taken   []statechart.TakenTransition
	Changed []statechart.VarChange
	Err     error
}

// EventMask builds the event bitmask for Step from event names.
func (e *Exec) EventMask(events ...string) uint64 {
	var m uint64
	for _, ev := range events {
		id, ok := e.prog.EventID(ev)
		if !ok {
			panic(fmt.Sprintf("codegen: unknown event %q", ev))
		}
		m |= 1 << uint(id)
	}
	return m
}

// Step runs one invocation of the generated step function with the given
// input events. Semantics mirror statechart.Machine exactly (super-step
// with per-event consumption); in addition every charge of the cost model
// flows through the ExecEnv and the listener observes each transition's
// start and finish instants.
func (e *Exec) Step(events uint64) StepResult {
	e.steps++
	e.charge = 0
	e.compute(e.cost.StepBase)
	e.snapshotOutputs(e.outStep)
	var res StepResult
	for n := 0; ; n++ {
		if n >= statechart.MaxChain {
			res.Err = fmt.Errorf("codegen %s: transition chain exceeded %d (livelock?)", e.prog.ChartName, statechart.MaxChain)
			break
		}
		t := e.pickTransition(events, &res)
		if t == nil || res.Err != nil {
			break
		}
		if t.Trig.Kind == statechart.TrigEvent {
			events &^= 1 << uint(t.Trig.Event)
		}
		e.fire(t, &res)
	}
	e.idle = len(res.Taken) == 0 && res.Err == nil && events == 0
	res.Changed = e.diffOutputs(e.outStep)
	e.tick++
	return res
}

// SkipIdle advances the executor over up to n ticks without running the
// step function, and returns how many it advanced. It advances only
// right after a Step(0) that took no transition and raised no error.
// Such a step changed nothing, so with no events and the same variables
// every later step repeats it, charge for charge, until a temporal
// trigger on the active chain changes truth value: the skip stops at the
// first such tick. Tick and Steps advance by the skipped ticks, the
// skipped steps' summed charge goes to the ExecEnv as one Compute, and
// entry ticks and variables stay as they are.
func (e *Exec) SkipIdle(n int64) int64 {
	if !e.idle {
		return 0
	}
	k := n
	for sid := e.active; sid >= 0 && k > 0; sid = e.prog.States[sid].Parent {
		// The next step sees c ticks in sid; the idle step saw c-1.
		c := e.ticksIn(sid)
		for _, tid := range e.prog.States[sid].Trans {
			trig := e.prog.Trans[tid].Trig
			switch trig.Kind {
			case statechart.TrigAfter, statechart.TrigBefore, statechart.TrigAt:
				if c-1 < trig.N {
					k = min(k, trig.N-c)
				} else if c-1 == trig.N && trig.Kind == statechart.TrigAt {
					k = 0
				}
			}
		}
	}
	if k <= 0 {
		return 0
	}
	e.tick += k
	e.steps += uint64(k)
	e.elided += uint64(k)
	if d := time.Duration(k) * e.charge; e.env != nil && d > 0 {
		e.env.Compute(d)
	}
	return k
}

func (e *Exec) pickTransition(events uint64, res *StepResult) *TransRow {
	for sid := e.active; sid >= 0; sid = e.prog.States[sid].Parent {
		for _, tid := range e.prog.States[sid].Trans {
			t := &e.prog.Trans[tid]
			if e.enabled(t, events, res) {
				return t
			}
			if res.Err != nil {
				return nil
			}
		}
	}
	return nil
}

func (e *Exec) enabled(t *TransRow, events uint64, res *StepResult) bool {
	switch t.Trig.Kind {
	case statechart.TrigEvent:
		if events&(1<<uint(t.Trig.Event)) == 0 {
			return false
		}
	case statechart.TrigAfter:
		if e.ticksIn(t.From) < t.Trig.N {
			return false
		}
	case statechart.TrigBefore:
		if e.ticksIn(t.From) >= t.Trig.N {
			return false
		}
	case statechart.TrigAt:
		if e.ticksIn(t.From) != t.Trig.N {
			return false
		}
	}
	if t.Guard.Len == 0 {
		return true
	}
	e.compute(time.Duration(t.Guard.Nodes) * e.cost.PerGuardNode)
	v, err := e.run(t.Guard)
	if err != nil {
		if res.Err == nil {
			res.Err = err
		}
		return false
	}
	return v != 0
}

func (e *Exec) ticksIn(sid int) int64 { return e.tick - e.entryTick[sid] }

// fire executes one transition with instrumentation and cost charging.
func (e *Exec) fire(t *TransRow, res *StepResult) {
	// The per-transition snapshot exists only for the listener's benefit;
	// without a listener no diff is consumed, so none is computed.
	if e.listener != nil {
		e.listener.TransitionStart(t.ID, t.Label, e.now())
		e.snapshotOutputs(e.outFire)
	}
	e.compute(e.cost.PerTransition)
	// Exit up from the active leaf to the transition source's scope.
	exitTo := e.prog.States[t.From].Parent
	for sid := e.active; sid >= 0 && sid != exitTo; sid = e.prog.States[sid].Parent {
		e.runAction(e.prog.States[sid].Exit, res)
	}
	e.runAction(t.Action, res)
	e.enterChain(t.To, exitTo, res)
	e.transitions++
	res.Taken = append(res.Taken, statechart.TakenTransition{
		Index: t.ID,
		From:  e.prog.States[t.From].Name,
		To:    e.prog.States[t.To].Name,
		Label: t.Label,
	})
	if e.listener != nil {
		e.listener.TransitionFinish(t.ID, t.Label, e.now(), e.diffOutputs(e.outFire))
	}
}

func (e *Exec) enterChain(target, scope int, res *StepResult) {
	var chain []int
	for sid := target; sid >= 0 && sid != scope; sid = e.prog.States[sid].Parent {
		chain = append(chain, sid)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		sid := chain[i]
		e.entryTick[sid] = e.tick
		e.runAction(e.prog.States[sid].Entry, res)
	}
	sid := target
	for e.prog.States[sid].Initial >= 0 {
		sid = e.prog.States[sid].Initial
		e.entryTick[sid] = e.tick
		e.runAction(e.prog.States[sid].Entry, res)
	}
	e.active = sid
}

func (e *Exec) enterFrom(sid int) {
	for {
		e.entryTick[sid] = e.tick
		e.runAction(e.prog.States[sid].Entry, nil)
		if e.prog.States[sid].Initial < 0 {
			e.active = sid
			return
		}
		sid = e.prog.States[sid].Initial
	}
}

func (e *Exec) runAction(ref CodeRef, res *StepResult) {
	if ref.Len == 0 {
		return
	}
	e.compute(time.Duration(ref.Nodes) * e.cost.PerActionNode)
	if _, err := e.run(ref); err != nil && res != nil && res.Err == nil {
		res.Err = err
	}
}

// run executes a code fragment on the VM and returns the top of stack
// (0 when the fragment leaves the stack empty, as actions do).
func (e *Exec) run(ref CodeRef) (int64, error) {
	st := e.stack[:0]
	pc := ref.PC
	end := ref.PC + ref.Len
	pop := func() int64 {
		v := st[len(st)-1]
		st = st[:len(st)-1]
		return v
	}
	for pc < end {
		in := e.prog.Code[pc]
		pc++
		switch in.Op {
		case OpHalt:
			pc = end
		case OpPush:
			st = append(st, in.A)
		case OpLoad:
			st = append(st, e.vars[in.A])
		case OpStore:
			e.vars[in.A] = pop()
		case OpAdd:
			r := pop()
			st[len(st)-1] += r
		case OpSub:
			r := pop()
			st[len(st)-1] -= r
		case OpMul:
			r := pop()
			st[len(st)-1] *= r
		case OpDiv:
			r := pop()
			if r == 0 {
				return 0, fmt.Errorf("codegen %s: division by zero", e.prog.ChartName)
			}
			st[len(st)-1] /= r
		case OpMod:
			r := pop()
			if r == 0 {
				return 0, fmt.Errorf("codegen %s: modulo by zero", e.prog.ChartName)
			}
			st[len(st)-1] %= r
		case OpNeg:
			st[len(st)-1] = -st[len(st)-1]
		case OpNot:
			if st[len(st)-1] == 0 {
				st[len(st)-1] = 1
			} else {
				st[len(st)-1] = 0
			}
		case OpEq:
			r := pop()
			st[len(st)-1] = b2i(st[len(st)-1] == r)
		case OpNe:
			r := pop()
			st[len(st)-1] = b2i(st[len(st)-1] != r)
		case OpLt:
			r := pop()
			st[len(st)-1] = b2i(st[len(st)-1] < r)
		case OpLe:
			r := pop()
			st[len(st)-1] = b2i(st[len(st)-1] <= r)
		case OpGt:
			r := pop()
			st[len(st)-1] = b2i(st[len(st)-1] > r)
		case OpGe:
			r := pop()
			st[len(st)-1] = b2i(st[len(st)-1] >= r)
		case OpAbs:
			if st[len(st)-1] < 0 {
				st[len(st)-1] = -st[len(st)-1]
			}
		case OpMin:
			r := pop()
			if r < st[len(st)-1] {
				st[len(st)-1] = r
			}
		case OpMax:
			r := pop()
			if r > st[len(st)-1] {
				st[len(st)-1] = r
			}
		case OpJmp:
			pc = int(in.A) // jump targets are absolute pool indices
		case OpJmpFalse:
			if pop() == 0 {
				pc = int(in.A)
			}
		case OpJmpTrue:
			if pop() != 0 {
				pc = int(in.A)
			}
		case OpDup:
			st = append(st, st[len(st)-1])
		case OpPop:
			pop()
		case OpBool:
			st[len(st)-1] = b2i(st[len(st)-1] != 0)
		default:
			return 0, fmt.Errorf("codegen %s: bad opcode %v at pc %d", e.prog.ChartName, in.Op, pc-1)
		}
	}
	e.stack = st[:0]
	if len(st) == 0 {
		return 0, nil
	}
	return st[len(st)-1], nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// snapshotOutputs records the current output values into dst (one of the
// per-Exec scratch buffers), indexed like outIDs. No allocation.
func (e *Exec) snapshotOutputs(dst []int64) {
	for k, id := range e.outIDs {
		dst[k] = e.vars[id]
	}
}

// diffOutputs reports the outputs that changed since before was
// snapshotted. outIDs is pre-sorted by name, so the changes come out in
// name order without a sort — and with zero allocations when nothing
// changed (the common steady-state case).
func (e *Exec) diffOutputs(before []int64) []statechart.VarChange {
	var changes []statechart.VarChange
	for k, id := range e.outIDs {
		if e.vars[id] != before[k] {
			changes = append(changes, statechart.VarChange{
				Name: e.prog.Vars[id].Name, From: before[k], To: e.vars[id],
			})
		}
	}
	return changes
}
