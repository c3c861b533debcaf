package codegen

import (
	"fmt"
	"reflect"
	"testing"

	"rmtest/internal/randchart"
	"rmtest/internal/sim"
	"rmtest/internal/statechart"
)

// skipRun is one executor of the idle-skip comparison with everything it
// shows: the charges it made, as the clock its listener reads, and the
// transitions, output changes and errors of the last invocation.
type skipRun struct {
	e       *Exec
	env     *envStub
	lst     *recListener
	changed []statechart.VarChange
	errs    int
}

func newSkipRun(p *Program) *skipRun {
	r := &skipRun{env: &envStub{}, lst: &recListener{}}
	r.e = NewExec(p, DefaultCostModel(), r.env, r.lst)
	return r
}

// invoke runs one periodic invocation of n ticks, events on the first,
// as the platform's stepChart does: with skip set, the catch-up loop
// hands Exec.SkipIdle every tick it can take.
func (r *skipRun) invoke(events uint64, n int64, skip bool) {
	*r.lst = recListener{}
	r.changed, r.errs = r.changed[:0], 0
	r.absorb(r.e.Step(events))
	for k := int64(1); k < n; k++ {
		if skip {
			if k += r.e.SkipIdle(n - k); k == n {
				break
			}
		}
		r.absorb(r.e.Step(0))
	}
}

func (r *skipRun) absorb(res StepResult) {
	r.changed = append(r.changed, res.Changed...)
	if res.Err != nil {
		r.errs++
	}
}

// diff describes the first difference between a tick-by-tick run and a
// skipping one, or returns "" when they agree.
func (r *skipRun) diff(s *skipRun) string {
	a, b := r.e, s.e
	switch {
	case a.ActiveState() != b.ActiveState():
		return fmt.Sprintf("active state %s vs %s", a.ActiveState(), b.ActiveState())
	case !reflect.DeepEqual(a.vars, b.vars):
		return fmt.Sprintf("variables %v vs %v", a.Vars(), b.Vars())
	case !reflect.DeepEqual(a.entryTick, b.entryTick):
		return fmt.Sprintf("entry ticks %v vs %v", a.entryTick, b.entryTick)
	case !reflect.DeepEqual(a.lastChild, b.lastChild):
		return fmt.Sprintf("history %v vs %v", a.lastChild, b.lastChild)
	case a.Tick() != b.Tick() || a.Steps() != b.Steps():
		return fmt.Sprintf("tick %d/%d steps vs %d/%d", a.Tick(), a.Steps(), b.Tick(), b.Steps())
	case a.TransitionsTaken() != b.TransitionsTaken():
		return fmt.Sprintf("transitions %d vs %d", a.TransitionsTaken(), b.TransitionsTaken())
	case r.env.t != s.env.t:
		return fmt.Sprintf("charged %v vs %v", r.env.t, s.env.t)
	case !reflect.DeepEqual(r.lst, s.lst):
		return fmt.Sprintf("listener saw %+v vs %+v", *r.lst, *s.lst)
	case !reflect.DeepEqual(r.changed, s.changed):
		return fmt.Sprintf("output changes %v vs %v", r.changed, s.changed)
	case r.errs != s.errs:
		return fmt.Sprintf("%d vs %d step errors", r.errs, s.errs)
	case a.Elided() != 0:
		return fmt.Sprintf("the tick-by-tick run elided %d ticks", a.Elided())
	}
	return ""
}

// compareIdleSkip drives a tick-by-tick and a skipping executor of p
// through the invocations stim encodes, three bytes each: the events of
// the first tick (none unless the top bit is set), the value of every
// input variable, and the number of ticks, 1 to 64. It compares the two
// after every invocation up to the first that errs, and returns the ticks
// the skipping run elided.
func compareIdleSkip(p *Program, stim []byte) (uint64, error) {
	ref, sk := newSkipRun(p), newSkipRun(p)
	all := uint64(1)<<uint(len(p.Events)) - 1
	for i := 0; i+2 < len(stim); i += 3 {
		var events uint64
		if stim[i]&0x80 != 0 {
			events = uint64(stim[i]) & all
		}
		for id, v := range p.Vars {
			if v.Kind == statechart.Input {
				ref.e.vars[id] = int64(stim[i+1] % 8)
				sk.e.vars[id] = int64(stim[i+1] % 8)
			}
		}
		n := 1 + int64(stim[i+2]%64)
		ref.invoke(events, n, false)
		sk.invoke(events, n, true)
		before := sk.e.Steps() - uint64(n)
		if d := ref.diff(sk); d != "" {
			return 0, fmt.Errorf("invocation %d (events %b, %d ticks from tick %d): %s", i/3, events, n, before, d)
		}
		if ref.errs > 0 {
			break // as in TestDifferentialRandomCharts: an erring run shows less
		}
	}
	return sk.e.Elided(), nil
}

// randStim returns the bytes of n random invocations for compareIdleSkip.
func randStim(r *sim.Rand, n int) []byte {
	stim := make([]byte, 3*n)
	for i := range stim {
		stim[i] = byte(r.Intn(256))
	}
	return stim
}

// TestIdleSkipMatchesTickByTick: an executor that skips idle catch-up
// ticks agrees with one that steps every tick, invocation by invocation,
// on random flat and hierarchical charts and the hand-written ones, in
// variables, configuration, entry ticks, history, counters, charged cost
// and the instants its listener reads. The corpus must elide ticks, and
// a during action on every active chain must stop every skip.
func TestIdleSkipMatchesTickByTick(t *testing.T) {
	check := func(name string, c *statechart.Chart, r *sim.Rand) uint64 {
		t.Helper()
		_, p := compileProgram(t, c)
		elided, err := compareIdleSkip(p, randStim(r, 30))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return elided
	}
	var elided, withDuring uint64
	for seed := uint64(1); seed <= 200; seed++ {
		r := sim.NewRand(seed)
		elided += check(fmt.Sprintf("seed %d", seed), randchart.Chart(r), r)

		c := randchart.Chart(r)
		for _, st := range c.States {
			st.During = "loc0 := loc0 + 1"
		}
		withDuring += check(fmt.Sprintf("seed %d with during actions", seed), c, r)
	}
	r := sim.NewRand(1)
	for _, c := range []*statechart.Chart{pumpChart(), hierChart(), histChart()} {
		for i := 0; i < 20; i++ {
			elided += check(c.Name, c, r)
		}
	}
	t.Logf("elided %d ticks", elided)
	if elided == 0 {
		t.Error("no tick was elided: the comparison is vacuous")
	}
	if withDuring != 0 {
		t.Errorf("charts with a during action on every state elided %d ticks, want 0", withDuring)
	}
}

// FuzzIdleSkip is TestIdleSkipMatchesTickByTick's comparison on a random
// chart and an arbitrary sequence of up to 64 invocations.
func FuzzIdleSkip(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 40, 0x81, 3, 24, 0, 5, 255})
	f.Fuzz(func(t *testing.T, seed uint64, stim []byte) {
		stim = stim[:min(len(stim), 3*64)]
		cc, err := randchart.Chart(sim.NewRand(seed)).Compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		p, err := Generate(cc)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		if _, err := compareIdleSkip(p, stim); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
