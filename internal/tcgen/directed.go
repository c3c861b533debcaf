package tcgen

import (
	"time"

	"rmtest/internal/coverage"
	"rmtest/internal/sim"
)

// CoverageDirected returns the coverage-directed generator: a seeded
// stimulus schedule is iteratively extended with feedback from the
// adequacy measurement until the target adequacy or the evaluation
// budget is reached. Extensions are applied in priority order, one kind
// per round so each addition's effect is measured before the next:
//
//  1. Uncovered transitions -> model-guided probe chains (probePlanner).
//  2. Empty phase bins -> additional samples at the bins' centre phases
//     (coverage.Suggest).
//  3. Missing boundary-band delays -> samples aligned just before a
//     phase-period release, where queueing delay peaks (once).
func CoverageDirected() Generator { return coverageGen{} }

type coverageGen struct{}

func (coverageGen) Name() string { return "coverage" }

func (g coverageGen) Generate(t Target, opt Options) (Result, error) {
	t = t.normalised()
	opt = opt.normalised()
	if err := t.validate(); err != nil {
		return Result{}, err
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = 32
	}
	rs := sim.NewRand(opt.Seed ^ 0x0c0ffee)
	sched := seedSchedule(t, "gen-coverage", opt.Samples, rs.Uint64())
	planner := newProbePlanner(t)
	res := Result{Strategy: g.Name(), WorstIndex: -1}
	m := newMemo(t, opt)
	boundaryDone := false
	for {
		outs, err := m.evaluate(rs.Uint64(), []Schedule{sched})
		if err != nil {
			return Result{}, err
		}
		res.Evals++
		res.Rounds++
		out := outs[0]
		cov := coverage.Measure(out.M.Program, out.M.TransTrace, *out.M, t.PhasePeriod, t.Bins)
		res.Schedule = sched.Clone()
		res.Samples = out.R.Samples
		res.Coverage = &cov
		if cov.Transitions.Ratio() >= targetTransitions && cov.Phase.Ratio() >= opt.TargetPhase {
			break
		}
		if res.Evals >= budget {
			break
		}
		if !g.extend(t, opt, planner, &sched, cov, &boundaryDone) {
			break // nothing left to add: adequacy is as good as it gets
		}
	}
	res.WorstDelay, res.WorstIndex = worstOf(res.Samples, t.Req)
	res.Violated = violated(res.Samples)
	res.Unreachable = planner.unreachable()
	res.Hits, res.Deduped = m.hits, m.deduped
	return res, nil
}

// extend applies the highest-priority available extension; false means
// no extension is available and the loop should stop.
func (coverageGen) extend(t Target, opt Options, planner *probePlanner, s *Schedule, cov coverage.Report, boundaryDone *bool) bool {
	if len(cov.Transitions.Uncovered) > 0 && planner.plan(s, cov.Transitions.Uncovered) > 0 {
		return true
	}
	if cov.Phase.Ratio() < opt.TargetPhase {
		if sug := coverage.Suggest(cov.Phase, s.End(), t.Settle); len(sug) > 0 {
			for _, at := range sug {
				s.Add(sampleGroup(t, at)...)
			}
			return true
		}
	}
	if !cov.Boundary.Adequate() && !*boundaryDone {
		*boundaryDone = true
		// Two samples hugging a phase-period release from below: the
		// stimulus just misses the current release and waits out a whole
		// period, pushing the observed delay toward the bound.
		base := s.End() + t.Settle
		for _, eps := range []sim.Time{time.Millisecond, 300 * time.Microsecond} {
			at := (base/t.PhasePeriod+1)*t.PhasePeriod - eps
			if at < base {
				at += t.PhasePeriod
			}
			s.Add(sampleGroup(t, at)...)
			base = at + t.Settle
		}
		return true
	}
	return false
}
