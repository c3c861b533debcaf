package core

import (
	"fmt"

	"rmtest/internal/codegen"
	"rmtest/internal/fourvar"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// SystemFactory builds a fresh implemented system at the requested
// instrumentation level. The testing framework owns the system's life
// cycle: it creates one per run and shuts it down afterwards. RunRM always
// asks for M level; callers that drive a run themselves through Setup may
// ask for R level. Because the whole stack is deterministic and M-level
// probes cost no virtual time, both levels execute identical schedules
// for the same test case.
type SystemFactory func(level platform.Instrument) (*platform.System, error)

// SampleResult is the R-testing outcome for one stimulus.
type SampleResult struct {
	Index      int
	StimulusAt sim.Time // scripted stimulus instant
	MEvent     fourvar.Event
	MObserved  bool
	CEvent     fourvar.Event
	CObserved  bool
	Delay      sim.Time // c - m; meaningful when CObserved
	Verdict    Verdict
}

func (s SampleResult) String() string {
	if !s.CObserved {
		return fmt.Sprintf("#%d m@%v -> MAX", s.Index, s.MEvent.At)
	}
	return fmt.Sprintf("#%d m@%v -> c@%v delay=%v %v", s.Index, s.MEvent.At, s.CEvent.At, s.Delay, s.Verdict)
}

// RResult is the outcome of R-testing one test case (goal G1).
type RResult struct {
	Requirement Requirement
	Scheme      string
	Case        TestCase
	Samples     []SampleResult
}

// Passed reports whether every sample met the bound.
func (r RResult) Passed() bool {
	for _, s := range r.Samples {
		if s.Verdict != Pass {
			return false
		}
	}
	return true
}

// Violations returns the indices of non-passing samples.
func (r RResult) Violations() []int {
	var out []int
	for _, s := range r.Samples {
		if s.Verdict != Pass {
			out = append(out, s.Index)
		}
	}
	return out
}

// MSample is the M-testing measurement for one stimulus.
type MSample struct {
	SampleResult
	Segments   fourvar.Segments
	SegmentsOK bool
	// IObserved reports whether the stimulus at least produced an i-event
	// at the CODE(M) boundary within the timeout. For MAX samples this
	// localises the loss: false means the Input-Device path never
	// delivered the event; true means CODE(M) saw it but the response
	// path starved.
	IObserved bool
	IEvent    fourvar.Event
	// OObserved reports whether CODE(M) produced an o-event (wrote the
	// mapped output variable) within the timeout. Together with
	// IObserved it trisects a MAX loss: no i — input path; i but no o —
	// CODE(M) starved; o but no c — output device. Fault attribution
	// leans on this split for response-suppressing faults.
	OObserved bool
	OEvent    fourvar.Event
}

// MResult is the outcome of M-testing one test case (goal G2).
type MResult struct {
	Requirement Requirement
	Scheme      string
	Case        TestCase
	Samples     []MSample
	// Program and TransTrace are retained from the M-level run so
	// adequacy analysis (internal/coverage) can relate executed
	// transitions to the generated code without re-running.
	Program    *codegen.Program
	TransTrace *fourvar.TransitionTrace
}

// Runner executes R- and M-testing against one implemented system
// configuration.
type Runner struct {
	Factory SystemFactory
	Req     Requirement
	// Prepare, when set, scripts auxiliary environment behaviour for the
	// test case before the run starts — e.g. an operator resetting the
	// system between samples so every stimulus meets the precondition
	// state. It runs once per Setup, before the clock advances, preserving
	// determinism.
	Prepare func(sys *platform.System, tc TestCase)
}

// NewRunner validates the requirement and returns a runner.
func NewRunner(factory SystemFactory, req Requirement) (*Runner, error) {
	if factory == nil {
		return nil, fmt.Errorf("core: runner needs a system factory")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &Runner{Factory: factory, Req: req}, nil
}

// applyStimuli schedules the test case's stimuli on the system's
// environment.
func (r *Runner) applyStimuli(sys *platform.System, tc TestCase) {
	st := r.Req.Stimulus
	for _, at := range tc.Stimuli {
		if st.Width > 0 {
			sys.Env.PulseAt(at, st.Signal, st.Value, st.Rest, st.Width)
		} else {
			sys.Env.SetAt(at, st.Signal, st.Value)
		}
	}
}

// Setup assembles a fresh system at the requested instrumentation level
// with the test case's stimuli scheduled and the Prepare hook applied —
// everything RunRM does before advancing the clock. It rejects a test
// case whose stimuli decrease: responses are credited to samples in FIFO
// order, which is only sound for ordered stimuli. Callers own the
// returned system; it holds no goroutine, so it needs no teardown.
func (r *Runner) Setup(level platform.Instrument, tc TestCase) (*platform.System, error) {
	if err := tc.checkOrder(); err != nil {
		return nil, err
	}
	sys, err := r.Factory(level)
	if err != nil {
		return nil, err
	}
	r.applyStimuli(sys, tc)
	if r.Prepare != nil {
		r.Prepare(sys, tc)
	}
	return sys, nil
}

// Evaluate extracts the per-sample verdicts from a finished run by
// replaying its trace through the verdict machines with no kernel
// attached, so the end of the trace decides every open timeout. It judges
// a run that was driven without live machines, such as one a caller set
// up with Setup and ran itself; the trace must cover the test case's
// horizon. tc must be a test case Setup accepts.
func (r *Runner) Evaluate(sys *platform.System, tc TestCase) []SampleResult {
	v := newVerdicts(r.Req, tc)
	for _, e := range sys.Trace.Events() {
		v.onEvent(e)
	}
	return v.flush()
}

// AnnotateM lifts R-level base verdicts into the M-testing result by
// matching each sample's m->i->o->c chain and delay segments from the
// M-instrumented trace. RunRM calls it on its live run; a run judged by
// Evaluate gets the identical segment extraction through it.
func (r *Runner) AnnotateM(sys *platform.System, tc TestCase, base []SampleResult) MResult {
	mp := sys.Mapping()
	iName := mp.MtoI[r.Req.Stimulus.Signal]
	oName := ""
	for o, c := range mp.OtoC {
		if c == r.Req.Response.Signal {
			oName = o
		}
	}
	res := MResult{
		Requirement: r.Req, Scheme: sys.SchemeName(), Case: tc,
		Program: sys.Program(), TransTrace: sys.TransTrace,
	}
	for i, s := range base {
		ms := MSample{SampleResult: s}
		if s.MObserved && iName != "" {
			if ie, ok := sys.Trace.FirstAt(fourvar.Input, iName, s.MEvent.At, nil); ok &&
				ie.At-s.MEvent.At <= r.Req.EffectiveTimeout() {
				ms.IObserved = true
				ms.IEvent = ie
			}
		}
		if s.MObserved && oName != "" {
			if oe, ok := sys.Trace.FirstAt(fourvar.Output, oName, s.MEvent.At, nil); ok &&
				oe.At-s.MEvent.At <= r.Req.EffectiveTimeout() {
				ms.OObserved = true
				ms.OEvent = oe
			}
		}
		if s.MObserved && s.CObserved && iName != "" && oName != "" {
			// The requirement is stated at the m/c boundary, so only the
			// c-event carries its response predicate; the o-boundary accepts
			// any change of the mapped output variable. The deadline keeps
			// the matched chain inside the same window the R-verdict judged.
			spec := fourvar.MatchSpec{
				MName: r.Req.Stimulus.Signal, MPred: r.Req.Stimulus.Match.Fn,
				IName: iName,
				OName: oName,
				CName: r.Req.Response.Signal, CPred: r.Req.Response.Match.Fn,
				Deadline: r.Req.EffectiveTimeout(),
			}
			seg, ok := fourvar.Match(sys.Trace, sys.TransTrace, spec, tc.Stimuli[i])
			ms.Segments = seg
			ms.SegmentsOK = ok
		}
		res.Samples = append(res.Samples, ms)
	}
	return res
}

// Report is the outcome of the layered R->M flow.
type Report struct {
	R RResult
	// M is populated when R-testing found violations (or when forced).
	M *MResult
	// Diagnosis lists human-readable findings per violating sample.
	Diagnosis []Finding
}

// RunRM performs the paper's layered flow on one M-instrumented run.
// R-testing's verdicts come from the verdict machines attached live, which
// read only m- and c-events; if any sample violates the requirement, or
// force is set, M-testing matches the delay segments from the i/o
// boundary events of the same trace and diagnoses them. The paper runs
// M-testing separately because probes cost time on hardware; in virtual
// time they cost none, so a second run would repeat the first. The run
// stops at the instant the last sample is decided, which is safe for the
// annotation: its deadline-bounded chain matching needs no event past the
// last decision instant.
func (r *Runner) RunRM(tc TestCase, force bool) (Report, error) {
	sys, err := r.Setup(platform.MLevel, tc)
	if err != nil {
		return Report{}, err
	}
	v := newVerdicts(r.Req, tc)
	v.attach(sys)
	sys.Run(tc.Horizon(r.Req))
	rep := Report{R: RResult{Requirement: r.Req, Scheme: sys.SchemeName(), Case: tc, Samples: v.flush()}}
	if rep.R.Passed() && !force {
		return rep, nil
	}
	m := r.AnnotateM(sys, tc, rep.R.Samples)
	rep.M = &m
	rep.Diagnosis = Diagnose(m)
	return rep, nil
}
