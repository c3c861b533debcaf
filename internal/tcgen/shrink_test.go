package tcgen

// Property tests of the ddmin shrinking core: shrinking never loses the
// violation — the input, every accepted intermediate and the minimal
// schedule all violate — quick-checked over synthetic predicates and
// exercised against the real GPCA system.

import (
	"testing"
	"time"

	"rmtest/internal/sim"
)

// syntheticSchedule builds n primary stimuli at 1 s spacing.
func syntheticSchedule(n int) Schedule {
	s := Schedule{Name: "synthetic"}
	for i := 0; i < n; i++ {
		s.Add(Stimulus{Signal: "sig", Value: 1, At: sim.Time(i+1) * sim.Time(time.Second)})
	}
	return s
}

// containsAll is the synthetic violation predicate: a schedule violates
// iff it retains every stimulus instant in needed. This models a
// violation caused by a specific stimulus combination, the hardest case
// for ddmin (dropping any needed stimulus loses the violation).
func containsAll(needed map[sim.Time]bool) BatchEval {
	return func(scheds []Schedule) ([]bool, error) {
		out := make([]bool, len(scheds))
		for i, s := range scheds {
			have := map[sim.Time]bool{}
			for _, st := range s.Stimuli {
				have[st.At] = true
			}
			ok := true
			for at := range needed {
				if !have[at] {
					ok = false
					break
				}
			}
			out[i] = ok
		}
		return out, nil
	}
}

// TestShrinkNeverLosesViolation quick-checks the preservation property:
// for many (suite size, needed subset) combinations, the input, every
// Trail entry and the Minimal schedule all violate, and the Minimal is
// exactly the needed subset (ddmin reached 1-minimality).
func TestShrinkNeverLosesViolation(t *testing.T) {
	rs := sim.NewRand(99)
	for trial := 0; trial < 50; trial++ {
		size := 2 + rs.Intn(14)
		s := syntheticSchedule(size)
		perm := make([]int, size)
		for i := range perm {
			perm[i] = i
		}
		for i := size - 1; i > 0; i-- {
			j := rs.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		needed := map[sim.Time]bool{}
		for _, i := range perm[:1+rs.Intn(size)] {
			needed[s.Stimuli[i].At] = true
		}
		eval := containsAll(needed)
		sr, err := ShrinkWith(s, eval, 10000)
		if err != nil {
			t.Fatalf("trial %d (size %d, needed %d): %v", trial, size, len(needed), err)
		}
		for j, inter := range append(sr.Trail, sr.Minimal) {
			v, _ := eval([]Schedule{inter})
			if !v[0] {
				t.Fatalf("trial %d: intermediate %d/%d lost the violation", trial, j, len(sr.Trail))
			}
		}
		if got := len(sr.Minimal.Stimuli); got != len(needed) {
			t.Errorf("trial %d: minimal has %d stimuli, needed set has %d", trial, got, len(needed))
		}
		for _, st := range sr.Minimal.Stimuli {
			if !needed[st.At] {
				t.Errorf("trial %d: minimal retains unneeded stimulus at %v", trial, st.At)
			}
		}
	}
}

// TestShrinkRejectsNonViolating: an input that does not violate is an
// error — there is nothing to preserve while shrinking.
func TestShrinkRejectsNonViolating(t *testing.T) {
	never := func(scheds []Schedule) ([]bool, error) {
		return make([]bool, len(scheds)), nil
	}
	if _, err := ShrinkWith(syntheticSchedule(4), never, 100); err == nil {
		t.Fatal("non-violating input accepted")
	}
}

// TestShrinkBudgetExhaustion: with the budget spent on the initial
// verification alone, the result is the (violating) input itself.
func TestShrinkBudgetExhaustion(t *testing.T) {
	s := syntheticSchedule(6)
	always := func(scheds []Schedule) ([]bool, error) {
		out := make([]bool, len(scheds))
		for i := range out {
			out[i] = true
		}
		return out, nil
	}
	sr, err := ShrinkWith(s, always, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Minimal.Stimuli) != len(s.Stimuli) {
		t.Errorf("budget 1 still shrank to %d stimuli", len(sr.Minimal.Stimuli))
	}
	if sr.Evals > 1 {
		t.Errorf("spent %d evals over budget 1", sr.Evals)
	}
}

// TestShrinkSkipsSampleFreeCandidates: candidates with no primary
// stimulus are never evaluated (a schedule with no samples cannot
// violate), so a 2-stimulus schedule whose violation needs only the aux
// stimulus still shrinks to a schedule containing the primary.
func TestShrinkSkipsSampleFreeCandidates(t *testing.T) {
	s := Schedule{Name: "aux-heavy"}
	s.Add(
		Stimulus{Signal: "load", Value: 1, At: sim.Time(time.Second), Aux: true},
		Stimulus{Signal: "sig", Value: 1, At: 2 * sim.Time(time.Second)},
	)
	seen := 0
	always := func(scheds []Schedule) ([]bool, error) {
		out := make([]bool, len(scheds))
		for i, c := range scheds {
			if len(c.Primary()) == 0 {
				t.Errorf("evaluated a candidate with no primary stimuli: %+v", c.Stimuli)
			}
			out[i] = true
			seen++
		}
		return out, nil
	}
	sr, err := ShrinkWith(s, always, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Minimal.Primary()) == 0 {
		t.Error("minimal schedule has no primary stimulus")
	}
	if seen == 0 {
		t.Error("no candidate was evaluated")
	}
}

// TestShrinkPreservesViolationRealSystem: shrink a real falsified GPCA
// schedule and re-run the input, every Trail entry and the Minimal on
// the actual scheme-3 system — each must still violate.
func TestShrinkPreservesViolationRealSystem(t *testing.T) {
	tgt := gpcaTarget(t, scheme3)
	fal, err := Falsification().Generate(tgt, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !fal.Violated {
		t.Fatal("falsification found no violation to shrink")
	}
	opt := Options{Seed: 42}
	sr, err := Shrink(tgt, opt, fal.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Minimal.Stimuli) > len(fal.Schedule.Stimuli) {
		t.Fatalf("minimal grew: %d > %d", len(sr.Minimal.Stimuli), len(fal.Schedule.Stimuli))
	}
	check := append([]Schedule{fal.Schedule}, sr.Trail...)
	check = append(check, sr.Minimal)
	outs, err := newMemo(tgt.normalised(), opt.normalised()).evaluate(7, check)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if !violated(out.R.Samples) {
			t.Errorf("schedule %d/%d (of input+trail+minimal) no longer violates", i, len(check)-1)
		}
	}
}
