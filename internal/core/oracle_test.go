package core

import (
	"rmtest/internal/fourvar"
	"rmtest/internal/platform"
)

// Oracle is the reference verdict evaluator the verdict machines are
// checked against: an independent formulation of the same rules as
// searches over the finished trace.
func (r *Runner) Oracle(sys *platform.System, tc TestCase) []SampleResult {
	return r.evaluate(sys, tc)
}

// evaluate extracts per-sample verdicts from the trace.
func (r *Runner) evaluate(sys *platform.System, tc TestCase) []SampleResult {
	out := make([]SampleResult, 0, len(tc.Stimuli))
	req := r.Req
	// nextC is the first unconsumed ordinal of the response stream: each
	// matched c-event is consumed, so one response can never be credited to
	// two consecutive stimuli (which would inflate Pass counts when
	// stimulus i+1 arrives before response i).
	nextC := 0
	for i, at := range tc.Stimuli {
		s := SampleResult{Index: i, StimulusAt: at}
		m, ok := sys.Trace.FirstAt(fourvar.Monitored, req.Stimulus.Signal, at, req.Stimulus.Match.Fn)
		if !ok {
			// The stimulus itself did not register as an m-event; treat
			// as MAX with the scripted instant as the reference.
			s.MEvent = fourvar.Event{Kind: fourvar.Monitored, Name: req.Stimulus.Signal, At: at}
			s.Verdict = Max
			out = append(out, s)
			continue
		}
		s.MEvent = m
		s.MObserved = true
		c, ord, ok := sys.Trace.FirstAtOrd(fourvar.Controlled, req.Response.Signal, m.At, nextC, req.Response.Match.Fn)
		if ok && c.At-m.At > req.EffectiveTimeout() {
			ok = false // response attributable to a later cause
		}
		if !ok {
			s.Verdict = Max
			out = append(out, s)
			continue
		}
		nextC = ord + 1
		s.CEvent = c
		s.CObserved = true
		s.Delay = c.At - m.At
		if s.Delay <= req.Bound {
			s.Verdict = Pass
		} else {
			s.Verdict = Fail
		}
		out = append(out, s)
	}
	return out
}
