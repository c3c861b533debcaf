package core

import (
	"rmtest/internal/fourvar"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// The verdict engine: R-testing's PASS/FAIL/MAX rules, applied by one
// small state machine per stimulus as the m- and c-events stream past —
// the on-the-fly matching of timed traces of Chupilko & Kamkin, with the
// quiescence/timeout verdicts of Brandán Briones et al. folded into
// per-stimulus deadline watchdogs. It is the only implementation of the
// verdict rules, and it runs in two modes:
//
//   - live (attach): the machines tap the four-variable trace while the
//     kernel runs, watchdogs decide timeouts in virtual time, and the
//     kernel stops at the instant the last sample is decided;
//   - replay (Runner.Evaluate): a finished trace's events are fed through
//     the same machines with no kernel attached, and flush decides every
//     timeout the trace leaves open.
//
// A decided machine is never revisited, so the engine's state is
// O(in-flight stimuli), not O(trace length).

// phase is the life cycle of one per-stimulus state machine:
//
//	waitM --m-event--> waitC --credited c / deadline--> done
type phase int

const (
	waitM phase = iota // stimulus scripted, m-event not yet observed
	waitC              // m observed, waiting for a creditable c-event
	done               // verdict recorded
)

// machine is the per-stimulus state machine. It holds only what the
// verdict needs: the scripted instant, the matched m-event and the armed
// deadline watchdog.
type machine struct {
	idx int      // sample index within the test case
	at  sim.Time // scripted stimulus instant
	ph  phase
	m   fourvar.Event // matched m-event (valid in waitC)
	wd  sim.Event     // deadline watchdog, armed on m-observation
}

// verdicts streams one requirement's verdicts over one test case. The
// stimuli must be non-decreasing (Runner.Setup enforces it): the FIFO
// response-crediting rule relies on it.
type verdicts struct {
	req     Requirement
	timeout sim.Time
	k       *sim.Kernel // nil on replay: flush decides timeouts

	ms      []machine      // one per sample, in sample order
	head    int            // first undecided machine
	results []SampleResult // slot per sample, filled on decision
	decided int

	// Same-instant buffer: events of one virtual instant are batched and
	// m-events are admitted before c-events, so verdicts do not depend on
	// the record order of events within one instant.
	bufAt sim.Time
	buf   []fourvar.Event
}

func newVerdicts(req Requirement, tc TestCase) *verdicts {
	v := &verdicts{
		req:     req,
		timeout: req.EffectiveTimeout(),
		ms:      make([]machine, len(tc.Stimuli)),
		results: make([]SampleResult, len(tc.Stimuli)),
	}
	for i, at := range tc.Stimuli {
		v.ms[i] = machine{idx: i, at: at, ph: waitM}
	}
	return v
}

// attach subscribes the machines to a live system's trace; decide stops
// the kernel run once every sample is decided.
func (v *verdicts) attach(sys *platform.System) {
	v.k = sys.Kernel
	sys.Trace.Tap(v.onEvent)
}

// onEvent consumes one four-variable event; events of other signals are
// ignored.
func (v *verdicts) onEvent(e fourvar.Event) {
	relevant := (e.Kind == fourvar.Monitored && e.Name == v.req.Stimulus.Signal) ||
		(e.Kind == fourvar.Controlled && e.Name == v.req.Response.Signal)
	if !relevant {
		return
	}
	if len(v.buf) > 0 && e.At > v.bufAt {
		v.flushInstant()
	}
	v.bufAt = e.At
	v.buf = append(v.buf, e)
}

// flushInstant processes the buffered events of one virtual instant:
// m-events first (admitting waiting machines), then c-events in record
// order.
func (v *verdicts) flushInstant() {
	for _, e := range v.buf {
		if e.Kind == fourvar.Monitored {
			v.onStimulus(e)
		}
	}
	for _, e := range v.buf {
		if e.Kind == fourvar.Controlled {
			v.onResponse(e)
		}
	}
	v.buf = v.buf[:0]
}

// onStimulus admits every machine still waiting for its m-event whose
// scripted instant has been reached. Matching is non-consuming: one
// m-event can serve several stimuli.
func (v *verdicts) onStimulus(e fourvar.Event) {
	if !v.req.Stimulus.Match.Fn(e.Value) {
		return
	}
	for i := v.head; i < len(v.ms); i++ {
		mc := &v.ms[i]
		if mc.ph != waitM || mc.at > e.At {
			continue
		}
		mc.ph = waitC
		mc.m = e
		v.armWatchdog(mc)
	}
}

// armWatchdog schedules the deadline decision for one admitted machine:
// one virtual nanosecond past the timeout window, so a response landing
// exactly on the deadline is processed first. Beyond the run horizon the
// watchdog never fires and flush decides instead.
func (v *verdicts) armWatchdog(mc *machine) {
	if v.k == nil {
		return // replay: flush decides timeouts
	}
	deadline := mc.m.At + v.timeout + 1
	if deadline < v.k.Now() {
		return // admitted after its deadline; flush decides
	}
	mc.wd = v.k.At(deadline, func() {
		// Events recorded at this same instant sit in the buffer; they
		// are all past the deadline, but processing them first keeps the
		// consumption order the same as on replay.
		v.flushInstant()
		if mc.ph == waitC {
			v.decide(mc, v.maxResult(mc))
		}
	})
}

// onResponse offers a matching c-event to the admitted machines in sample
// order: machines whose deadline has passed are decided MAX and skipped
// (the response is not theirs to consume), and the first machine whose
// window contains the response is credited with it.
func (v *verdicts) onResponse(e fourvar.Event) {
	if !v.req.Response.Match.Fn(e.Value) {
		return
	}
	for i := v.head; i < len(v.ms); i++ {
		mc := &v.ms[i]
		if mc.ph != waitC {
			// A machine still waiting for its stimulus cannot be
			// credited: its c-search starts at its (future) m-event.
			continue
		}
		if e.At-mc.m.At > v.timeout {
			v.decide(mc, v.maxResult(mc))
			continue
		}
		s := SampleResult{
			Index: mc.idx, StimulusAt: mc.at,
			MEvent: mc.m, MObserved: true,
			CEvent: e, CObserved: true,
			Delay: e.At - mc.m.At,
		}
		if s.Delay <= v.req.Bound {
			s.Verdict = Pass
		} else {
			s.Verdict = Fail
		}
		v.decide(mc, s)
		return // response consumed
	}
}

// maxResult builds the MAX verdict for a machine in its current phase.
func (v *verdicts) maxResult(mc *machine) SampleResult {
	s := SampleResult{Index: mc.idx, StimulusAt: mc.at, Verdict: Max}
	if mc.ph == waitC {
		s.MEvent = mc.m
		s.MObserved = true
	} else {
		// The stimulus never registered as an m-event; the scripted
		// instant is the reference.
		s.MEvent = fourvar.Event{Kind: fourvar.Monitored, Name: v.req.Stimulus.Signal, At: mc.at}
	}
	return s
}

// decide records a verdict and retires the machine. In live mode the
// last decision stops the kernel run after the event in progress.
func (v *verdicts) decide(mc *machine, s SampleResult) {
	mc.ph = done
	v.results[mc.idx] = s
	v.decided++
	mc.wd.Cancel() // no-op unless armed and still pending
	mc.wd = sim.Event{}
	for v.head < len(v.ms) && v.ms[v.head].ph == done {
		v.head++
	}
	if v.k != nil && v.decided == len(v.results) {
		v.k.Stop()
	}
}

// flush ends the stream: buffered events are processed and every
// still-undecided machine becomes MAX, since no further event can change
// its verdict. It returns the per-sample verdicts in sample order.
func (v *verdicts) flush() []SampleResult {
	v.flushInstant()
	for i := v.head; i < len(v.ms); i++ {
		if mc := &v.ms[i]; mc.ph != done {
			v.decide(mc, v.maxResult(mc))
		}
	}
	return v.results
}
