// Package tcgen closes the generation loop the paper leaves as future
// work (§V): instead of replaying hand-written stimulus tables, it
// synthesizes timed test cases for an implemented system automatically.
//
// Three strategies sit behind one Generator interface:
//
//   - CoverageDirected: a seeded stimulus schedule is iteratively
//     extended with feedback from the adequacy measurement
//     (internal/coverage): model-guided probe chains reach uncovered
//     transitions, phase-bin suggestions fill the stimulus phase space,
//     and boundary probes push observed delays toward the requirement
//     bound. The loop stops at a target adequacy or when the evaluation
//     budget runs out.
//
//   - Falsification: a mutation/hill-climb search over the stimulus
//     instants (phase shifts, burst tightening, period-boundary
//     alignment) maximizes the observed response time toward — and past
//     — the requirement deadline, reporting the worst schedule found and
//     whether it violates.
//
//   - Shrinking: delta-debugging reduces a violating schedule to a
//     minimal stimulus subset that still violates, so generated
//     counterexamples are small enough for a human to read.
//
// Every candidate evaluation is one deterministic simulation run
// executed through the campaign engine (internal/campaign): per-round
// seeds derive from a splitmix64 chain, results collect in run order,
// and the generated suites are byte-identical at any worker count. Each
// search memoises its own evaluations, so a candidate it proposes again
// is simulated once.
package tcgen

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"time"

	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/coverage"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// Stimulus is one scheduled physical action of a generated test case.
// Primary stimuli drive the requirement's stimulus signal and become the
// samples of the core.TestCase; auxiliary stimuli drive other signals
// (probe chains reaching uncovered transitions) and are applied through
// the runner's Prepare hook, exactly as hand-written scenario
// preparation is.
type Stimulus struct {
	Signal string
	Value  int64
	Rest   int64
	Width  sim.Time
	At     sim.Time
	// Aux marks a non-sample stimulus on an auxiliary signal.
	Aux bool
}

// Schedule is one generated timed test case: a deterministic list of
// stimuli, kept sorted by instant (ties broken by signal name for a
// canonical order).
type Schedule struct {
	Name    string
	Stimuli []Stimulus
}

// sortStimuli canonicalises the stimulus order.
func sortStimuli(ss []Stimulus) {
	sort.SliceStable(ss, func(i, j int) bool {
		if ss[i].At != ss[j].At {
			return ss[i].At < ss[j].At
		}
		return ss[i].Signal < ss[j].Signal
	})
}

// Clone returns a deep copy of the schedule.
func (s Schedule) Clone() Schedule {
	out := Schedule{Name: s.Name, Stimuli: make([]Stimulus, len(s.Stimuli))}
	copy(out.Stimuli, s.Stimuli)
	return out
}

// Add appends stimuli and restores the canonical order.
func (s *Schedule) Add(ss ...Stimulus) {
	s.Stimuli = append(s.Stimuli, ss...)
	sortStimuli(s.Stimuli)
}

// Primary returns the instants of the primary (sample) stimuli in order.
func (s Schedule) Primary() []sim.Time {
	var out []sim.Time
	for _, st := range s.Stimuli {
		if !st.Aux {
			out = append(out, st.At)
		}
	}
	return out
}

// End returns the last stimulus instant (0 for an empty schedule).
func (s Schedule) End() sim.Time {
	var end sim.Time
	for _, st := range s.Stimuli {
		if st.At > end {
			end = st.At
		}
	}
	return end
}

// TestCase projects the schedule's primary stimuli into a core.TestCase.
func (s Schedule) TestCase() core.TestCase {
	return core.TestCase{Name: s.Name, Stimuli: s.Primary()}
}

// Schedule shaping shared by every target and strategy.
const (
	// defaultSamples is the primary-sample count of seeded schedules
	// when Options.Samples is zero.
	defaultSamples = 4
	// defaultStart is the first stimulus instant of seeded schedules
	// when Target.Start is zero.
	defaultStart = 50 * time.Millisecond
	// eventGap is the dwell between consecutive probe-chain events, long
	// enough for the previous event to propagate through the sensing
	// pipeline and fire its transition.
	eventGap = 300 * time.Millisecond
	// probeWidth is the pulse width of auxiliary probe stimuli, wide
	// enough for every sensor sampling period to latch.
	probeWidth = 150 * time.Millisecond
	// targetTransitions is the transition-coverage ratio the
	// coverage-directed strategy stops at: every transition.
	targetTransitions = 1.0
)

// Target describes the implemented system a generator searches against.
type Target struct {
	// Prebuilt is the compiled chart and validated bindings; it is
	// immutable and shared by all campaign workers.
	Prebuilt *platform.Prebuilt
	// Scheme constructs the implementation scheme per run.
	Scheme func() platform.Scheme
	// Req is the timing requirement under test.
	Req core.Requirement
	// PhasePeriod is the platform period whose stimulus alignment the
	// phase-coverage dimension bins (typically the CODE(M) task period).
	PhasePeriod sim.Time
	// Bins is the phase-bin count (default 8).
	Bins int
	// Start is the first stimulus instant of seeded schedules (default
	// 50 ms).
	Start sim.Time
	// Settle separates consecutive primary samples so each one finds the
	// system back in its precondition state (for the pump: the 4 s bolus
	// plus the 1 s timeout).
	Settle sim.Time
	// SampleAux lists auxiliary companion stimuli scheduled relative to
	// every generated primary sample (each entry's At is the offset from
	// the sample instant). Scenarios whose per-sample precondition needs
	// scripted environment behaviour — the crossing's clear circuit
	// releasing the gate after each train — express it here; probe
	// chains manage their own resets and do not carry companions.
	SampleAux []Stimulus
}

// normalised fills the Target defaults.
func (t Target) normalised() Target {
	if t.Bins <= 0 {
		t.Bins = 8
	}
	if t.PhasePeriod <= 0 {
		t.PhasePeriod = 40 * time.Millisecond
	}
	if t.Settle <= 0 {
		t.Settle = t.Req.EffectiveTimeout() + 10*time.Millisecond
	}
	if t.Start <= 0 {
		t.Start = defaultStart
	}
	return t
}

// validate checks the target is runnable.
func (t Target) validate() error {
	if t.Prebuilt == nil {
		return fmt.Errorf("tcgen: Target.Prebuilt is required")
	}
	if t.Scheme == nil {
		return fmt.Errorf("tcgen: Target.Scheme is required")
	}
	return t.Req.Validate()
}

// Options bounds and seeds a generation run.
type Options struct {
	// Budget is the maximum number of candidate evaluations the strategy
	// may spend, memo hits included; 0 means the strategy default.
	Budget int
	// Seed drives every random choice (seeded schedules, mutations)
	// through a splitmix64 chain; the same seed reproduces the same
	// suite byte for byte.
	Seed uint64
	// Workers bounds the campaign worker pool; 0 means GOMAXPROCS. Any
	// value produces byte-identical suites.
	Workers int
	// Samples is the primary-sample count of seeded schedules (default 4).
	Samples int
	// TargetPhase is the phase-bin coverage ratio the coverage-directed
	// strategy stops at (default 0.9).
	TargetPhase float64
	// Progress, when set, receives a campaign snapshot per executed
	// evaluation; candidates the search's memo answers are not counted.
	Progress func(campaign.Progress)
}

// normalised fills the Options defaults.
func (o Options) normalised() Options {
	if o.Samples <= 0 {
		o.Samples = defaultSamples
	}
	if o.TargetPhase <= 0 {
		o.TargetPhase = 0.9
	}
	return o
}

// Result is one strategy's outcome.
type Result struct {
	// Strategy names the generator that produced the result.
	Strategy string
	// Schedule is the generated (best/final) schedule.
	Schedule Schedule
	// Samples are the final schedule's per-sample R verdicts.
	Samples []core.SampleResult
	// Coverage is the final adequacy report (coverage-directed runs
	// measure it each round; other strategies leave it nil).
	Coverage *coverage.Report
	// Unreachable lists transitions no probe chain could fire (no bound
	// signal for a required event), sorted.
	Unreachable []string
	// WorstDelay is the largest observed response time; samples whose
	// response never arrived count as the requirement timeout.
	WorstDelay sim.Time
	// WorstIndex is the sample index of the worst delay (-1 when the
	// schedule produced no samples).
	WorstIndex int
	// Violated reports whether any sample failed the requirement.
	Violated bool
	// Rounds and Evals count search iterations and candidate evaluations.
	Rounds int
	Evals  int
	// Hits counts evaluations the search's memo answered from an earlier
	// batch, and Deduped those that repeated a candidate of their own
	// batch; Evals-Hits-Deduped evaluations were simulated.
	Hits    int
	Deduped int
	// Shrunk is the delta-debugged minimal violating schedule (falsification
	// pipelines fill it in when Violated).
	Shrunk *Schedule
}

// Generator is one test-case generation strategy.
type Generator interface {
	// Name identifies the strategy in reports.
	Name() string
	// Generate searches the target within the option budget.
	Generate(t Target, opt Options) (Result, error)
}

// worstOf folds per-sample delays into the search score: the largest
// observed delay, with unobserved responses counting as the requirement
// timeout (the worst measurable outcome).
func worstOf(samples []core.SampleResult, req core.Requirement) (sim.Time, int) {
	worst, idx := sim.Time(-1), -1
	for i, s := range samples {
		d := s.Delay
		if !s.CObserved {
			d = req.EffectiveTimeout()
		}
		if d > worst {
			worst, idx = d, i
		}
	}
	if idx < 0 {
		return 0, -1
	}
	return worst, idx
}

// violated reports whether any sample missed the bound.
func violated(samples []core.SampleResult) bool {
	for _, s := range samples {
		if s.Verdict != core.Pass {
			return true
		}
	}
	return false
}

// memo is one search's private record of its candidate evaluations.
// The search's Target and Options are fixed, so an evaluation depends only
// on the candidate's stimuli, and they form the key. Schedule names are
// left out: shrinking renames candidates without changing what they
// compute. The campaign seed is left out too, since no evaluation reads
// its run seed.
type memo struct {
	t             Target
	opt           Options
	seen          map[string]core.Report
	hits, deduped int
}

func newMemo(t Target, opt Options) *memo {
	return &memo{t: t, opt: opt, seen: map[string]core.Report{}}
}

// evaluate returns every candidate's layered report in schedule order.
// Each candidate is one Runner.RunRM simulation with M-testing forced, so
// its report carries both the R verdicts the searches score and the M
// result the coverage-directed search measures adequacy on. Candidates
// evaluated by an earlier batch are answered from the memo, a candidate
// repeated within the batch runs once, and the remaining ones run as one
// campaign seeded with seed. Failed evaluations are never memoised.
// Reports are byte-identical at any worker count.
func (m *memo) evaluate(seed uint64, scheds []Schedule) ([]core.Report, error) {
	keys := make([]string, len(scheds))
	queued := map[string]bool{}
	var run []int // batch indices that execute
	for i, s := range scheds {
		key := stimuliKey(s.Stimuli)
		keys[i] = key
		switch _, ok := m.seen[key]; {
		case ok:
			m.hits++
		case queued[key]:
			m.deduped++
		default:
			queued[key] = true
			run = append(run, i)
		}
	}
	t := m.t
	cfg := campaign.Config{Workers: m.opt.Workers, Seed: seed, OnProgress: m.opt.Progress}
	ran, err := campaign.Values(campaign.MapScratch(cfg, len(run),
		func() *platform.Scratch { return &platform.Scratch{} },
		func(r campaign.Run, sc *platform.Scratch) (core.Report, error) {
			sched := scheds[run[r.Index]]
			factory := func(lv platform.Instrument) (*platform.System, error) {
				return t.Prebuilt.NewSystem(t.Scheme(), lv, sc)
			}
			runner, err := core.NewRunner(factory, t.Req)
			if err != nil {
				return core.Report{}, err
			}
			runner.Prepare = func(sys *platform.System, _ core.TestCase) {
				for _, st := range sched.Stimuli {
					if st.Aux {
						sys.Env.PulseAt(st.At, st.Signal, st.Value, st.Rest, st.Width)
					}
				}
			}
			return runner.RunRM(sched.TestCase(), true)
		}))
	if err != nil {
		return nil, err
	}
	for k, i := range run {
		m.seen[keys[i]] = ran[k]
	}
	outs := make([]core.Report, len(scheds))
	for i, key := range keys {
		outs[i] = m.seen[key]
	}
	return outs, nil
}

// stimuliKey encodes a candidate's stimuli exactly, as its memo key: per
// stimulus, the signal name prefixed by its length, then Value, Rest,
// Width and At as fixed-width fields and Aux as one byte. Every record
// delimits itself, so two keys are equal only when the stimuli are.
func stimuliKey(ss []Stimulus) string {
	n := 0
	for _, s := range ss {
		n += len(s.Signal) + 5*8 + 1
	}
	var sb strings.Builder
	sb.Grow(n)
	var w [8]byte
	for _, s := range ss {
		sb.Write(binary.LittleEndian.AppendUint64(w[:0], uint64(len(s.Signal))))
		sb.WriteString(s.Signal)
		for _, v := range [...]int64{s.Value, s.Rest, int64(s.Width), int64(s.At)} {
			sb.Write(binary.LittleEndian.AppendUint64(w[:0], uint64(v)))
		}
		aux := byte(0)
		if s.Aux {
			aux = 1
		}
		sb.WriteByte(aux)
	}
	return sb.String()
}

// seedSchedule builds the deterministic starting schedule: n primary
// stimuli spaced one settle apart with a seeded phase jitter, the same
// shape the hand-written Table I suite uses.
func seedSchedule(t Target, name string, n int, seed uint64) Schedule {
	r := sim.NewRand(seed | 1)
	s := Schedule{Name: name}
	for k := 0; k < n; k++ {
		at := t.Start + sim.Time(k)*t.Settle + r.Duration(0, t.PhasePeriod)
		s.Add(sampleGroup(t, at)...)
	}
	return s
}

// sampleGroup shapes one sample: the primary stimulus plus the target's
// per-sample auxiliary companions at their offsets.
func sampleGroup(t Target, at sim.Time) []Stimulus {
	out := []Stimulus{primaryStimulus(t, at)}
	for _, aux := range t.SampleAux {
		aux.At += at
		aux.Aux = true
		out = append(out, aux)
	}
	return out
}

// primaryStimulus shapes one sample stimulus from the requirement.
func primaryStimulus(t Target, at sim.Time) Stimulus {
	st := t.Req.Stimulus
	width := st.Width
	if width <= 0 {
		// Persistent level changes still need to revert before the next
		// sample can trigger a fresh edge; rest after half a settle.
		width = t.Settle / 2
	}
	return Stimulus{Signal: st.Signal, Value: st.Value, Rest: st.Rest, Width: width, At: at}
}
