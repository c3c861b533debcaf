package codegen

import (
	"fmt"
	"slices"
	"testing"

	"rmtest/internal/randchart"
	"rmtest/internal/sim"
)

// reclass returns a copy of row with its tick moved by a random shift,
// every entry tick moved with it, and the tick counts of random
// active-path states pushed up or down, none below zero. The copy may or
// may not share row's step class.
func reclass(r *sim.Rand, p *Program, row []int64) []int64 {
	entry := 2 + len(p.Vars)
	o := slices.Clone(row)
	d := int64(r.Intn(6))
	o[1] += d
	for s := entry; s < len(o); s++ {
		o[s] += d
	}
	for sid := int(o[0]); sid >= 0; sid = p.States[sid].Parent {
		if r.Bool(0.5) {
			c := o[1] - o[entry+sid]
			o[entry+sid] = o[1] - max(0, c+int64(r.Intn(9))-2)
		}
	}
	return o
}

// successorByClass is the row a step from other takes, given that
// other shares the step class of row, whose step reached next: next's
// leaf and variables, other's tick plus one, and other's tick as the
// entry tick of every state the step from row entered (the states whose
// entry tick in next is row's tick), every other entry tick as in other.
func successorByClass(p *Program, row, next, other []int64) []int64 {
	entry := 2 + len(p.Vars)
	out := slices.Clone(next)
	out[1] = other[1] + 1
	for s := entry; s < len(out); s++ {
		if next[s] != row[1] {
			out[s] = other[s]
		} else {
			out[s] = other[1]
		}
	}
	return out
}

// checkStepClassRepeat draws a random chart from seed and runs it with
// random inputs and events. Before each step it saves the row, steps a
// random mask m from it, and then tries rows of other tick counts
// (reclass); each that shares the row's step class
// (Exec.AppendStepClass) is stepped with m too. Its step must show what
// the first showed, and its successor row must be the one rebuilt by
// the tick (successorByClass). It returns the rows compared, and how
// many of those had a tick count the first row did not.
func checkStepClassRepeat(seed uint64) (compared, pushed int, err error) {
	r := sim.NewRand(seed)
	cc, err := randchart.Chart(r).Compile()
	if err != nil {
		return 0, 0, fmt.Errorf("compile: %v", err)
	}
	p, err := Generate(cc)
	if err != nil {
		return 0, 0, fmt.Errorf("generate: %v", err)
	}
	e := NewExec(p, ZeroCostModel(), nil, nil)
	e.RecordWrites()
	in, _ := p.VarID("in0")
	all := uint64(1)<<len(p.Events) - 1
	counts := func(row []int64) []int64 {
		e.LoadRow(row)
		var c []int64
		for sid := e.active; sid >= 0; sid = p.States[sid].Parent {
			c = append(c, e.ticksIn(sid))
		}
		return c
	}
	for i := range 40 {
		e.SetInputID(in, int64(r.Intn(8)))
		row := e.AppendRow(nil)
		class := e.AppendStepClass(nil)
		m := r.Uint64() & all
		want := stepFrom(e, row, m)
		for range 6 {
			other := reclass(r, p, row)
			e.LoadRow(other)
			if !slices.Equal(e.AppendStepClass(nil), class) {
				continue
			}
			got := stepFrom(e, other, m)
			rebuilt := want
			rebuilt.row = successorByClass(p, row, want.row, other)
			if d := rebuilt.diff(got); d != "" {
				return compared, pushed, fmt.Errorf("step %d, mask %03b, from row %v and from %v of its class: %s", i, m, row, other, d)
			}
			compared++
			if !slices.Equal(counts(row), counts(other)) {
				pushed++
			}
		}
		if want.err != "" {
			break
		}
		e.LoadRow(want.row)
	}
	return compared, pushed, nil
}

// TestStepClassRepeatsStep runs checkStepClassRepeat on 300 charts and
// requires that it compared rows whose tick counts differ: a class that
// only ever matched its own row would check nothing.
func TestStepClassRepeatsStep(t *testing.T) {
	var compared, pushed int
	for seed := uint64(1); seed <= 300; seed++ {
		c, p, err := checkStepClassRepeat(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		compared, pushed = compared+c, pushed+p
	}
	t.Logf("%d rows stepped against a row of their class, %d with other tick counts", compared, pushed)
	if pushed < compared/4 {
		t.Errorf("only %d of %d rows compared had other tick counts", pushed, compared)
	}
}

// FuzzStepClassRepeatsStep checks Exec.AppendStepClass's contract: two
// configurations of one step class, stepped with the same inputs and
// mask, show the same step, and either's successor row is rebuilt from
// its own row and the other's step. The model checker steps each class
// once and rebuilds the rest.
func FuzzStepClassRepeatsStep(f *testing.F) {
	f.Add(uint64(1))
	f.Fuzz(func(t *testing.T, seed uint64) {
		if _, _, err := checkStepClassRepeat(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
