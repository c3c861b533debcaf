package codegen

import (
	"fmt"
	"slices"
	"testing"

	"rmtest/internal/randchart"
	"rmtest/internal/sim"
	"rmtest/internal/statechart"
)

// stepOutcome is what one Step shows: the configuration it leaves, as a
// row, its taken transition ids, output changes, output writes and
// error, and the event bits it tested.
type stepOutcome struct {
	row     []int64
	taken   []int
	changed []statechart.VarChange
	writes  []Write
	err     string
	tested  uint64
}

// stepFrom loads row into e, steps mask, and returns what the step
// showed, copied out of e's scratch.
func stepFrom(e *Exec, row []int64, mask uint64) stepOutcome {
	e.LoadRow(row)
	res := e.Step(mask)
	o := stepOutcome{
		row:     e.AppendRow(nil),
		taken:   slices.Clone(res.Taken),
		changed: slices.Clone(res.Changed),
		writes:  slices.Clone(e.Writes()),
		tested:  e.Tested(),
	}
	if res.Err != nil {
		o.err = res.Err.Error()
	}
	return o
}

// diff describes the first difference between two step outcomes, or
// returns "" when they agree.
func (o stepOutcome) diff(p stepOutcome) string {
	switch {
	case !slices.Equal(o.row, p.row):
		return fmt.Sprintf("rows %v vs %v", o.row, p.row)
	case !slices.Equal(o.taken, p.taken):
		return fmt.Sprintf("taken %v vs %v", o.taken, p.taken)
	case !slices.Equal(o.changed, p.changed):
		return fmt.Sprintf("changed %v vs %v", o.changed, p.changed)
	case !slices.Equal(o.writes, p.writes):
		return fmt.Sprintf("writes %v vs %v", o.writes, p.writes)
	case o.err != p.err:
		return fmt.Sprintf("errors %q vs %q", o.err, p.err)
	case o.tested != p.tested:
		return fmt.Sprintf("tested %b vs %b", o.tested, p.tested)
	}
	return ""
}

// checkTestedRepeat draws a random chart from seed and runs it with
// random inputs and events. Before each step it saves the row; it steps
// a random mask m, loads the row again, and steps m with random bits
// outside Tested flipped. The second step must repeat the first.
func checkTestedRepeat(seed uint64) error {
	r := sim.NewRand(seed)
	cc, err := randchart.Chart(r).Compile()
	if err != nil {
		return fmt.Errorf("compile: %v", err)
	}
	p, err := Generate(cc)
	if err != nil {
		return fmt.Errorf("generate: %v", err)
	}
	e := NewExec(p, ZeroCostModel(), nil, nil)
	e.RecordWrites()
	in, _ := p.VarID("in0")
	all := uint64(1)<<len(p.Events) - 1
	for i := range 40 {
		e.SetInputID(in, int64(r.Intn(8)))
		row := e.AppendRow(nil)
		m := r.Uint64() & all
		want := stepFrom(e, row, m)
		flip := all &^ want.tested
		if r.Bool(0.5) {
			flip &= r.Uint64()
		}
		if d := want.diff(stepFrom(e, row, m^flip)); d != "" {
			return fmt.Errorf("step %d from row %v: mask %03b, and with untested bits %03b flipped: %s", i, row, m, flip, d)
		}
		if want.err != "" {
			return nil
		}
	}
	return nil
}

// FuzzTestedEventsRepeatStep checks Exec.Tested's contract: a Step from
// the same configuration and inputs, with a mask that agrees on the
// tested bits, repeats the step exactly. The model checker skips the
// masks it would repeat.
func FuzzTestedEventsRepeatStep(f *testing.F) {
	f.Add(uint64(1))
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := checkTestedRepeat(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
