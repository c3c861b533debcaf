// Package core implements the paper's contribution: the layered R-M
// timing-testing framework over Parnas' four-variables model.
//
// A timing Requirement is expressed exactly as the paper's REQ1-a/b pair:
// a stimulus m-event, a response c-event, and a bound on their time
// difference. R-testing (goal G1) drives generated test stimuli into the
// implemented system and checks conformance using only the m/c boundary,
// yielding Pass / Fail / MAX verdicts per sample. When violations are
// found, M-testing (goal G2) re-executes the same deterministic schedule
// with CODE(M)-boundary instrumentation and measures the delay segments —
// Input-Delay, CODE(M)-Delay, Output-Delay and per-transition delays —
// that compose the deviation, then diagnoses the dominant contributor.
package core

import (
	"fmt"
	"time"

	"rmtest/internal/sim"
)

// ValuePred is a printable predicate over event values.
type ValuePred struct {
	Desc string
	Fn   func(int64) bool
}

// Equals matches events whose value is exactly v.
func Equals(v int64) ValuePred {
	return ValuePred{Desc: fmt.Sprintf("== %d", v), Fn: func(x int64) bool { return x == v }}
}

// AtLeast matches events whose value is at least v.
func AtLeast(v int64) ValuePred {
	return ValuePred{Desc: fmt.Sprintf(">= %d", v), Fn: func(x int64) bool { return x >= v }}
}

// StimulusSpec describes how the tester produces the m-event: the
// physical signal to drive and the pulse shape (a button press of Width;
// Width zero means a persistent level change).
type StimulusSpec struct {
	Signal string
	Value  int64
	Rest   int64
	Width  sim.Time
	// Match selects which m-events count as the stimulus occurrence
	// (normally the active value).
	Match ValuePred
}

// ResponseSpec describes the expected c-event.
type ResponseSpec struct {
	Signal string
	Match  ValuePred
}

// Requirement is a timing requirement in the paper's form:
//
//	(REQ-a) {(m-Stimulus, tm), (c-Response, tc)}
//	(REQ-b) tc - tm <= Bound
type Requirement struct {
	ID       string
	Text     string
	Stimulus StimulusSpec
	Response ResponseSpec
	// Bound is the maximum allowed response time (REQ-b).
	Bound sim.Time
	// Timeout is how long the tester waits for the response before
	// declaring MAX. Zero defaults to 10x Bound.
	Timeout sim.Time
}

// EffectiveTimeout returns the explicit timeout or its default.
func (r Requirement) EffectiveTimeout() sim.Time {
	if r.Timeout > 0 {
		return r.Timeout
	}
	return 10 * r.Bound
}

// Validate checks the requirement is well-formed.
func (r Requirement) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("core: requirement needs an ID")
	}
	if r.Stimulus.Signal == "" || r.Response.Signal == "" {
		return fmt.Errorf("core: requirement %s needs stimulus and response signals", r.ID)
	}
	if r.Stimulus.Match.Fn == nil || r.Response.Match.Fn == nil {
		return fmt.Errorf("core: requirement %s needs stimulus and response predicates", r.ID)
	}
	if r.Bound <= 0 {
		return fmt.Errorf("core: requirement %s needs a positive bound", r.ID)
	}
	if r.Timeout < 0 || (r.Timeout > 0 && r.Timeout < r.Bound) {
		return fmt.Errorf("core: requirement %s timeout must be >= bound", r.ID)
	}
	return nil
}

func (r Requirement) String() string {
	return fmt.Sprintf("%s: {(m-%s %s, tm), (c-%s %s, tc)}, tc - tm <= %v",
		r.ID, r.Stimulus.Signal, r.Stimulus.Match.Desc,
		r.Response.Signal, r.Response.Match.Desc, r.Bound)
}

// Verdict is the outcome of one test sample.
type Verdict int

// Sample verdicts.
const (
	// Pass: the response occurred within the bound.
	Pass Verdict = iota
	// Fail: the response occurred but after the bound.
	Fail
	// Max: the response was not observed before the timeout — the
	// paper's "MAX" table entries.
	Max
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Fail:
		return "FAIL"
	case Max:
		return "MAX"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// TestCase is one R-test: a deterministic sequence of stimulus instants.
// Each stimulus is one sample with its own verdict, following the paper's
// {(m-BolusReq, 10ms), (m-BolusReq, 300ms), ...} example.
type TestCase struct {
	Name    string
	Stimuli []sim.Time
}

// Horizon returns the instant by which all samples have either responded
// or timed out.
func (tc TestCase) Horizon(req Requirement) sim.Time {
	var h sim.Time
	for _, s := range tc.Stimuli {
		if end := s + req.EffectiveTimeout(); end > h {
			h = end
		}
	}
	return h + 10*time.Millisecond
}

// checkOrder rejects stimuli that decrease.
func (tc TestCase) checkOrder() error {
	for i := 1; i < len(tc.Stimuli); i++ {
		if tc.Stimuli[i] < tc.Stimuli[i-1] {
			return fmt.Errorf("core: test case %q: stimuli must be non-decreasing (stimulus %d at %v after %v)",
				tc.Name, i, tc.Stimuli[i], tc.Stimuli[i-1])
		}
	}
	return nil
}

// GenStrategy selects how stimulus instants are generated.
type GenStrategy int

// Generation strategies.
const (
	// UniformSpacing places stimuli at Start + k*Spacing.
	UniformSpacing GenStrategy = iota
	// JitteredSpacing adds a deterministic pseudo-random phase in
	// [0, Jitter] to each uniform instant, so successive samples exercise
	// different alignments with the platform's task periods.
	JitteredSpacing
	// PhaseSweep spreads the k-th stimulus phase evenly across one
	// SweepPeriod, probing every alignment systematically.
	PhaseSweep
)

// Generator produces R-test cases from a requirement.
type Generator struct {
	// N is the number of samples (stimuli) to generate.
	N int
	// Start is the instant of the first stimulus.
	Start sim.Time
	// Spacing separates consecutive stimuli; it must exceed the scenario
	// settle time (for the pump: the 4 s bolus duration).
	Spacing sim.Time
	// Strategy selects instant placement.
	Strategy GenStrategy
	// Jitter bounds the random phase for JitteredSpacing. It must not
	// exceed Spacing, or a later stimulus could land before an earlier
	// one.
	Jitter sim.Time
	// SweepPeriod is the period whose phases PhaseSweep covers.
	SweepPeriod sim.Time
	// Seed drives JitteredSpacing deterministically.
	Seed uint64
}

// Generate produces the test case.
func (g Generator) Generate(req Requirement) (TestCase, error) {
	if err := req.Validate(); err != nil {
		return TestCase{}, err
	}
	if g.N <= 0 {
		return TestCase{}, fmt.Errorf("core: generator needs N > 0")
	}
	if g.Spacing <= 0 {
		return TestCase{}, fmt.Errorf("core: generator needs positive spacing")
	}
	if g.Spacing < req.EffectiveTimeout() {
		return TestCase{}, fmt.Errorf("core: spacing %v must cover the %v timeout so samples cannot overlap", g.Spacing, req.EffectiveTimeout())
	}
	if g.Strategy == JitteredSpacing && g.Jitter > g.Spacing {
		return TestCase{}, fmt.Errorf("core: jitter %v exceeds spacing %v, so stimuli could decrease", g.Jitter, g.Spacing)
	}
	tc := TestCase{Name: fmt.Sprintf("%s/n=%d", req.ID, g.N)}
	r := sim.NewRand(g.Seed | 1)
	for k := 0; k < g.N; k++ {
		at := g.Start + sim.Time(k)*g.Spacing
		switch g.Strategy {
		case JitteredSpacing:
			j := g.Jitter
			if j <= 0 {
				j = g.Spacing / 4
			}
			at += r.Duration(0, j)
		case PhaseSweep:
			p := g.SweepPeriod
			if p <= 0 {
				return TestCase{}, fmt.Errorf("core: PhaseSweep needs SweepPeriod")
			}
			at += sim.Time(k) * p / sim.Time(g.N)
		}
		tc.Stimuli = append(tc.Stimuli, at)
	}
	return tc, nil
}
