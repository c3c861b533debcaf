package tcgen

import (
	"fmt"

	"rmtest/internal/sim"
)

// BatchEval evaluates candidate schedules — one deterministic run each —
// and reports, for each, whether it still violates the requirement. The
// shrinking core is written against this interface so the
// violation-preservation property can be quick-checked with synthetic
// predicates as well as exercised against the real system.
type BatchEval func(scheds []Schedule) ([]bool, error)

// ShrinkResult is the outcome of delta-debugging a violating schedule.
type ShrinkResult struct {
	// Minimal is the reduced schedule; every stimulus in it is needed
	// (removing any single one loses the violation once ddmin reaches
	// singleton granularity).
	Minimal Schedule
	// Trail lists the accepted intermediate schedules in reduction
	// order; each one still violates under the same seed.
	Trail []Schedule
	// Rounds and Evals count ddmin iterations and candidate evaluations.
	Rounds int
	Evals  int
}

// Shrink delta-debugs a violating schedule down to a minimal stimulus
// subset that still violates, evaluating candidates through the
// campaign engine (each ddmin round's candidates run as one batch, so
// shrinking parallelises without losing determinism: the accepted
// candidate is always the lowest-indexed violating one). Subsets that an
// earlier round already evaluated are answered from the search's memo.
func Shrink(t Target, opt Options, s Schedule) (ShrinkResult, error) {
	t = t.normalised()
	opt = opt.normalised()
	if err := t.validate(); err != nil {
		return ShrinkResult{}, err
	}
	return shrink(newMemo(t, opt), s)
}

// shrink is Shrink on a caller's memo.
func shrink(m *memo, s Schedule) (ShrinkResult, error) {
	budget := m.opt.Budget
	if budget <= 0 {
		budget = 64
	}
	rs := sim.NewRand(m.opt.Seed ^ 0x05a1e)
	eval := func(cands []Schedule) ([]bool, error) {
		outs, err := m.evaluate(rs.Uint64(), cands)
		if err != nil {
			return nil, err
		}
		v := make([]bool, len(outs))
		for i, o := range outs {
			v[i] = violated(o.R.Samples)
		}
		return v, nil
	}
	return ShrinkWith(s, eval, budget)
}

// ShrinkWith is the ddmin core over an injectable evaluator. It returns
// an error when the input schedule does not violate (there is nothing
// to preserve while shrinking). Candidates that would drop every
// primary stimulus are skipped: a schedule with no samples cannot
// violate.
func ShrinkWith(s Schedule, eval BatchEval, budget int) (ShrinkResult, error) {
	res := ShrinkResult{Minimal: s.Clone()}
	v, err := eval([]Schedule{res.Minimal})
	if err != nil {
		return res, err
	}
	res.Evals++
	if len(v) != 1 || !v[0] {
		return res, fmt.Errorf("tcgen: shrink input %q does not violate", s.Name)
	}
	cur := res.Minimal
	n := 2
	for len(cur.Stimuli) >= 2 && res.Evals < budget {
		res.Rounds++
		var cands []Schedule
		for _, keep := range complements(len(cur.Stimuli), n) {
			c := subset(cur, keep)
			if len(c.Primary()) == 0 {
				continue
			}
			cands = append(cands, c)
		}
		if room := budget - res.Evals; len(cands) > room {
			cands = cands[:room]
		}
		if len(cands) == 0 {
			if n >= len(cur.Stimuli) {
				break
			}
			n = minInt(2*n, len(cur.Stimuli))
			continue
		}
		v, err := eval(cands)
		if err != nil {
			return res, err
		}
		res.Evals += len(cands)
		accepted := -1
		for i := range cands {
			if v[i] {
				accepted = i
				break
			}
		}
		if accepted < 0 {
			if n >= len(cur.Stimuli) {
				break // 1-minimal: no single stimulus can be removed
			}
			n = minInt(2*n, len(cur.Stimuli))
			continue
		}
		cur = cands[accepted]
		res.Trail = append(res.Trail, cur.Clone())
		if n > 2 {
			n--
		}
		if n > len(cur.Stimuli) {
			n = len(cur.Stimuli)
		}
	}
	cur.Name = s.Name + ".min"
	res.Minimal = cur
	return res, nil
}

// complements partitions indices [0,total) into n chunks and yields, for
// each chunk, the indices outside it (ddmin's complement candidates).
func complements(total, n int) [][]int {
	if n > total {
		n = total
	}
	var out [][]int
	for c := 0; c < n; c++ {
		lo := c * total / n
		hi := (c + 1) * total / n
		if lo == hi {
			continue
		}
		keep := make([]int, 0, total-(hi-lo))
		for i := 0; i < total; i++ {
			if i < lo || i >= hi {
				keep = append(keep, i)
			}
		}
		out = append(out, keep)
	}
	return out
}

// subset projects the schedule onto the kept stimulus indices.
func subset(s Schedule, keep []int) Schedule {
	out := Schedule{Name: s.Name, Stimuli: make([]Stimulus, 0, len(keep))}
	for _, i := range keep {
		out.Stimuli = append(out.Stimuli, s.Stimuli[i])
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Shrinker adapts Shrink to the Generator interface for a fixed input
// schedule: Generate reduces the input against the target and returns
// the minimal schedule with its re-evaluated verdicts.
func Shrinker(input Schedule) Generator { return shrinkGen{input: input} }

type shrinkGen struct{ input Schedule }

func (shrinkGen) Name() string { return "shrink" }

func (g shrinkGen) Generate(t Target, opt Options) (Result, error) {
	t = t.normalised()
	opt = opt.normalised()
	if err := t.validate(); err != nil {
		return Result{}, err
	}
	// One memo covers the reduction and the final re-evaluation of the
	// minimal schedule, which the reduction has already evaluated.
	m := newMemo(t, opt)
	sr, err := shrink(m, g.input)
	if err != nil {
		return Result{}, err
	}
	outs, err := m.evaluate(opt.Seed^0x07e57, []Schedule{sr.Minimal})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Strategy: "shrink",
		Schedule: sr.Minimal,
		Samples:  outs[0].R.Samples,
		Rounds:   sr.Rounds,
		Evals:    sr.Evals + 1,
		Hits:     m.hits,
		Deduped:  m.deduped,
		Shrunk:   &sr.Minimal,
	}
	res.WorstDelay, res.WorstIndex = worstOf(res.Samples, t.Req)
	res.Violated = violated(res.Samples)
	return res, nil
}
