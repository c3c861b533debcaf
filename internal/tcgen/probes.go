package tcgen

import (
	"sort"

	"rmtest/internal/codegen"
	"rmtest/internal/sim"
	"rmtest/internal/statechart"
)

// probePlanner turns uncovered transitions of the generated program into
// timed stimulus chains, in the style of model-derived timed test
// generation: for each target transition it searches the transition
// graph (BFS, deterministic by transition id) for a drivable path from
// the initial configuration to the target's source state, emits the
// environment pulses that fire each event edge (via the reverse of the
// four-variable input mapping) and the dwells that let each temporal
// edge fire, then fires the target and drives the system back to the
// initial configuration so the next stimulus finds its precondition
// state.
type probePlanner struct {
	t        Target
	prog     *codegen.Program
	eventSig map[int]string // event id -> environment signal that fires it
	labelID  map[string]int // transition label -> id
	attempts map[int]int    // planning attempts per transition id
	failed   map[int]bool   // transitions no chain could be planned for
}

func newProbePlanner(t Target) *probePlanner {
	prog := t.Prebuilt.Program()
	p := &probePlanner{
		t: t, prog: prog,
		eventSig: map[int]string{},
		labelID:  map[string]int{},
		attempts: map[int]int{},
		failed:   map[int]bool{},
	}
	for sig, ev := range t.Prebuilt.Mapping().MtoI {
		if id, ok := prog.EventID(ev); ok {
			p.eventSig[id] = sig
		}
	}
	for _, tr := range prog.Trans {
		p.labelID[tr.Label] = tr.ID
	}
	return p
}

// leafOf follows the initial chain down to the leaf configuration state.
func (p *probePlanner) leafOf(sid int) int {
	for sid >= 0 && p.prog.States[sid].Initial >= 0 {
		sid = p.prog.States[sid].Initial
	}
	return sid
}

// inState reports whether state s is active when leaf is the current
// configuration (s is the leaf itself or an ancestor).
func (p *probePlanner) inState(leaf, s int) bool {
	for x := leaf; x >= 0; x = p.prog.States[x].Parent {
		if x == s {
			return true
		}
	}
	return false
}

// drivable reports whether the planner can make the transition fire:
// temporal triggers fire on their own given enough dwell; event triggers
// need an environment signal bound to the event.
func (p *probePlanner) drivable(tr codegen.TransRow) bool {
	if tr.Trig.Kind != statechart.TrigEvent {
		return true
	}
	_, ok := p.eventSig[tr.Trig.Event]
	return ok
}

// pathTo BFS-searches the transition graph from the given leaf
// configuration to one satisfying goal, using only drivable edges. The
// edge order is transition-id order, so the found path is deterministic.
func (p *probePlanner) pathTo(from int, goal func(leaf int) bool) ([]codegen.TransRow, bool) {
	if goal(from) {
		return nil, true
	}
	type node struct {
		leaf int
		via  []codegen.TransRow
	}
	visited := map[int]bool{from: true}
	queue := []node{{leaf: from}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, tr := range p.prog.Trans {
			if !p.inState(n.leaf, tr.From) || !p.drivable(tr) {
				continue
			}
			next := p.leafOf(tr.To)
			if visited[next] {
				continue
			}
			visited[next] = true
			via := append(append([]codegen.TransRow{}, n.via...), tr)
			if goal(next) {
				return via, true
			}
			queue = append(queue, node{leaf: next, via: via})
		}
	}
	return nil, false
}

// probe builds the stimulus chain that fires target starting from the
// initial configuration at instant at. It returns the stimuli, the
// cursor after the chain, and the set of transition ids the chain is
// expected to fire (the path, the target, and the reset path home).
func (p *probePlanner) probe(target codegen.TransRow, at sim.Time) ([]Stimulus, sim.Time, map[int]bool, bool) {
	if !p.drivable(target) {
		return nil, at, nil, false
	}
	home := p.leafOf(p.prog.InitState)
	edges, ok := p.pathTo(home, func(leaf int) bool { return p.inState(leaf, target.From) })
	if !ok {
		return nil, at, nil, false
	}
	fires := map[int]bool{}
	var out []Stimulus
	cursor := at
	emit := func(tr codegen.TransRow) {
		switch tr.Trig.Kind {
		case statechart.TrigEvent:
			out = append(out, p.pulse(p.eventSig[tr.Trig.Event], cursor))
			cursor += eventGap
		case statechart.TrigAfter, statechart.TrigAt, statechart.TrigBefore:
			// Dwell long enough for the temporal trigger to elapse, plus
			// the propagation gap.
			cursor += sim.Time(tr.Trig.N)*p.prog.TickPeriod + eventGap
		default:
			cursor += eventGap
		}
		fires[tr.ID] = true
	}
	for _, tr := range edges {
		emit(tr)
	}
	emit(target)
	// Reset: drive the system from the target's destination back to the
	// initial configuration. A target without a drivable way home relies
	// on its own temporal exits; the chain is still worth scheduling.
	if cur := p.leafOf(target.To); cur != home {
		if back, ok := p.pathTo(cur, func(leaf int) bool { return leaf == home }); ok {
			for _, tr := range back {
				emit(tr)
			}
		}
	}
	return out, cursor, fires, true
}

// pulse shapes one probe stimulus. A pulse on the requirement's stimulus
// signal is a real sample (it will be judged like any other); pulses on
// auxiliary signals ride along through the Prepare hook.
func (p *probePlanner) pulse(sig string, at sim.Time) Stimulus {
	if sig == p.t.Req.Stimulus.Signal {
		return primaryStimulus(p.t, at)
	}
	return Stimulus{Signal: sig, Value: 1, Rest: 0, Width: probeWidth, At: at, Aux: true}
}

// plan appends probe chains for the uncovered transitions (by label) to
// the schedule and returns how many chains were added. Transitions a
// chain already planned this round is expected to fire are skipped, as
// are transitions that exhausted their planning attempts. A trailing
// primary sample is appended after the chains so the live run's stop at
// its last verdict cannot cut the probes short: the run is only decided
// once the trailing sample — scheduled after every probe — is.
func (p *probePlanner) plan(s *Schedule, uncovered []string) int {
	var ids []int
	for _, label := range uncovered {
		if id, ok := p.labelID[label]; ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	cursor := s.End() + p.t.Settle
	planned := 0
	fired := map[int]bool{}
	var added []Stimulus
	for _, id := range ids {
		if fired[id] || p.failed[id] {
			continue
		}
		if p.attempts[id] >= 2 {
			// Two planned chains did not cover it (unsatisfied guard,
			// racing temporal exit): stop spending budget on it.
			p.failed[id] = true
			continue
		}
		p.attempts[id]++
		st, end, f, ok := p.probe(p.prog.Trans[id], cursor)
		if !ok {
			p.failed[id] = true
			continue
		}
		added = append(added, st...)
		cursor = end
		for k := range f {
			fired[k] = true
		}
		planned++
	}
	if planned > 0 {
		s.Add(added...)
		s.Add(sampleGroup(p.t, cursor+eventGap)...)
	}
	return planned
}

// unreachable returns the sorted labels of transitions no probe chain
// could be planned for (or whose chains repeatedly failed to cover).
func (p *probePlanner) unreachable() []string {
	var out []string
	for id := range p.failed {
		out = append(out, p.prog.Trans[id].Label)
	}
	sort.Strings(out)
	return out
}
