package tcgen

import (
	"time"

	"rmtest/internal/sim"
)

// Falsification returns the falsification-search generator: a
// mutation/hill-climb over the stimulus instants that maximises the
// observed response time toward — and past — the requirement deadline.
// Each round derives a deterministic batch of mutants from the current
// best schedule (phase shifts, period-boundary alignment, burst
// tightening down to the settle floor), evaluates the whole batch as one
// campaign, and adopts the highest-scoring mutant (ties break to the
// lowest batch index). A sample whose response never arrives scores the
// requirement timeout — the worst measurable outcome — so the search
// stops early once a timeout-scoring schedule is found: the score cannot
// improve further.
func Falsification() Generator { return falsifyGen{} }

type falsifyGen struct{}

func (falsifyGen) Name() string { return "falsify" }

// mutantsPerRound is the hill-climb neighbourhood size.
const mutantsPerRound = 6

func (g falsifyGen) Generate(t Target, opt Options) (Result, error) {
	t = t.normalised()
	opt = opt.normalised()
	if err := t.validate(); err != nil {
		return Result{}, err
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = 48
	}
	rs := sim.NewRand(opt.Seed ^ 0x0fa15ef)
	best := seedSchedule(t, "gen-falsify", opt.Samples, rs.Uint64())
	res := Result{Strategy: g.Name(), WorstIndex: -1}
	m := newMemo(t, opt)
	outs, err := m.evaluate(rs.Uint64(), []Schedule{best})
	if err != nil {
		return Result{}, err
	}
	res.Evals++
	bestSamples := outs[0].R.Samples
	bestScore, _ := worstOf(bestSamples, t.Req)
	scoreCap := t.Req.EffectiveTimeout()
	for res.Evals < budget && bestScore < scoreCap {
		res.Rounds++
		// The round's mutants are derived up front from the seed chain,
		// before any evaluation, so the search trajectory is a pure
		// function of the seed.
		cands := make([]Schedule, 0, mutantsPerRound)
		for k := 0; k < mutantsPerRound; k++ {
			cands = append(cands, mutate(t, best, rs.Fork()))
		}
		if room := budget - res.Evals; len(cands) > room {
			cands = cands[:room]
		}
		outs, err := m.evaluate(rs.Uint64(), cands)
		if err != nil {
			return Result{}, err
		}
		res.Evals += len(cands)
		for i, out := range outs {
			if score, _ := worstOf(out.R.Samples, t.Req); score > bestScore {
				bestScore, best, bestSamples = score, cands[i], out.R.Samples
			}
		}
	}
	res.Schedule = best
	res.Samples = bestSamples
	res.WorstDelay, res.WorstIndex = worstOf(bestSamples, t.Req)
	res.Violated = violated(bestSamples)
	res.Hits, res.Deduped = m.hits, m.deduped
	return res, nil
}

// mutate derives one neighbour of s by perturbing a primary stimulus
// instant. Gaps between consecutive samples never shrink below the
// settle floor, so a found violation is a genuine platform-timing
// violation rather than a model-semantics artifact (a stimulus the chart
// itself ignores because the previous response is still in progress).
func mutate(t Target, s Schedule, r *sim.Rand) Schedule {
	out := s.Clone()
	var prim []int
	for i, st := range out.Stimuli {
		if !st.Aux {
			prim = append(prim, i)
		}
	}
	if len(prim) == 0 {
		return out
	}
	k := r.Intn(len(prim))
	i := prim[k]
	p := t.PhasePeriod
	switch r.Intn(3) {
	case 0: // phase shift within one period
		at := out.Stimuli[i].At + r.Duration(0, p) - p/2
		if at < time.Millisecond {
			at = time.Millisecond
		}
		out.Stimuli[i].At = at
	case 1: // period-boundary alignment: land just before a release
		eps := []sim.Time{200 * time.Microsecond, 500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}[r.Intn(4)]
		at := out.Stimuli[i].At
		out.Stimuli[i].At = (at/p+1)*p - eps
	case 2: // burst tightening: close the gap to the previous sample
		if k > 0 {
			pr := prim[k-1]
			gap := out.Stimuli[i].At - out.Stimuli[pr].At
			if gap > t.Settle {
				tighten := sim.Time(r.Float64() * 0.5 * float64(gap-t.Settle))
				out.Stimuli[i].At = out.Stimuli[pr].At + t.Settle + (gap - t.Settle - tighten)
			}
		}
	}
	// Enforce the settle floor against the preceding sample after any move.
	if k > 0 {
		pr := prim[k-1]
		if min := out.Stimuli[pr].At + t.Settle; out.Stimuli[i].At < min {
			out.Stimuli[i].At = min
		}
	}
	sortStimuli(out.Stimuli)
	return out
}
