package core

import (
	"sort"
	"testing"
	"time"

	"rmtest/internal/fourvar"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
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
	// nextC is the first unconsumed trace position for the response: each
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
		c, ord, ok := firstAtOrd(sys.Trace, fourvar.Controlled, req.Response.Signal, m.At, nextC, req.Response.Match.Fn)
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

// firstAtOrd returns the first event of kind/name at or after t whose
// ordinal (its position in tr.Events()) is at least minOrd and that
// satisfies pred, together with that ordinal. Passing the previous
// match's ordinal plus one as minOrd consumes matches: no event answers
// two searches.
func firstAtOrd(tr *fourvar.Trace, kind fourvar.Kind, name string, t sim.Time, minOrd int, pred func(int64) bool) (fourvar.Event, int, bool) {
	events := tr.Events()
	ord := max(minOrd, sort.Search(len(events), func(i int) bool { return events[i].At >= t }))
	for ; ord < len(events); ord++ {
		if e := events[ord]; e.Kind == kind && e.Name == name && (pred == nil || pred(e.Value)) {
			return e, ord, true
		}
	}
	return fourvar.Event{}, -1, false
}

// TestFirstAtOrdConsumesMatches: passing the previous match's ordinal
// plus one skips events already credited.
func TestFirstAtOrdConsumesMatches(t *testing.T) {
	const ms = time.Millisecond
	tr := fourvar.NewTrace()
	tr.Record(fourvar.Controlled, "motor", 1, 10*ms)
	tr.Record(fourvar.Controlled, "motor", 0, 20*ms)
	tr.Record(fourvar.Controlled, "motor", 1, 30*ms)
	on := func(v int64) bool { return v == 1 }
	e, ord, ok := firstAtOrd(tr, fourvar.Controlled, "motor", 0, 0, on)
	if !ok || e.At != 10*ms || ord != 0 {
		t.Fatalf("first match: %v %d %v", e, ord, ok)
	}
	// Consuming ordinal 0: even a query from t=0 may not re-credit it.
	e, ord, ok = firstAtOrd(tr, fourvar.Controlled, "motor", 0, ord+1, on)
	if !ok || e.At != 30*ms || ord != 2 {
		t.Fatalf("consumed search: %v %d %v", e, ord, ok)
	}
	if _, _, ok := firstAtOrd(tr, fourvar.Controlled, "motor", 0, 3, on); ok {
		t.Fatal("exhausted trace should not match")
	}
}
