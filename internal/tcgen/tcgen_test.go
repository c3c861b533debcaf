package tcgen

// Acceptance and determinism tests of the generation strategies against
// the real GPCA and rail-crossing systems: the coverage-directed
// generator must reach full transition adequacy within its default
// budget, the falsification search must find a deadline violation on
// the interference-loaded scheme, and generated suites must be
// identical at any worker count.

import (
	"reflect"
	"testing"
	"time"

	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/railcrossing"
	"rmtest/internal/sim"
)

func gpcaTarget(t *testing.T, scheme func() platform.Scheme) Target {
	t.Helper()
	pb, err := gpca.Precompile()
	if err != nil {
		t.Fatal(err)
	}
	return Target{
		Prebuilt:    pb,
		Scheme:      scheme,
		Req:         gpca.REQ1(),
		PhasePeriod: 40 * time.Millisecond,
		Bins:        8,
		// One bolus cycle: the 4 s infusion plus response margin.
		Settle: 4500 * time.Millisecond,
	}
}

func crossingTarget(t *testing.T, scheme func() platform.Scheme) Target {
	t.Helper()
	pb, err := platform.Precompile(railcrossing.PlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Target{
		Prebuilt:    pb,
		Scheme:      scheme,
		Req:         railcrossing.GateRequirement(),
		PhasePeriod: 40 * time.Millisecond,
		Bins:        8,
		// One full gate cycle: 3 s lowering, 3 s raising, margins.
		Settle: 7500 * time.Millisecond,
		// Each train needs the clear circuit to release the gate.
		SampleAux: []Stimulus{{
			Signal: railcrossing.SigClear, Value: 1, Rest: 0,
			Width: 300 * time.Millisecond, At: 3500 * time.Millisecond,
		}},
	}
}

func scheme2() platform.Scheme { return platform.DefaultScheme2() }
func scheme3() platform.Scheme { return platform.DefaultScheme3() }

// TestCoverageDirectedGPCA: full transition coverage and at least 90%
// phase coverage within the default budget, with no transition the
// probe planner gave up on, and a well-formed schedule.
func TestCoverageDirectedGPCA(t *testing.T) {
	res, err := CoverageDirected().Generate(gpcaTarget(t, scheme2), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage == nil {
		t.Fatal("no adequacy report")
	}
	if r := res.Coverage.Transitions.Ratio(); r < 1 {
		t.Errorf("transition coverage %.2f, uncovered %v", r, res.Coverage.Transitions.Uncovered)
	}
	if r := res.Coverage.Phase.Ratio(); r < 0.9 {
		t.Errorf("phase coverage %.2f, want >= 0.90", r)
	}
	if res.Evals > 32 {
		t.Errorf("%d evaluations, default budget is 32", res.Evals)
	}
	if len(res.Unreachable) > 0 {
		t.Errorf("unreachable transitions: %v", res.Unreachable)
	}
	if len(res.Samples) != len(res.Schedule.Primary()) {
		t.Errorf("%d samples for %d primary stimuli", len(res.Samples), len(res.Schedule.Primary()))
	}
	for i := 1; i < len(res.Schedule.Stimuli); i++ {
		if res.Schedule.Stimuli[i].At < res.Schedule.Stimuli[i-1].At {
			t.Fatalf("schedule not time-ordered at %d", i)
		}
	}
}

// TestCoverageDirectedCrossing: the second chart reaches full adequacy
// too — the generator is not GPCA-specific.
func TestCoverageDirectedCrossing(t *testing.T) {
	res, err := CoverageDirected().Generate(crossingTarget(t, scheme2), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Coverage.Transitions.Ratio(); r < 1 {
		t.Errorf("transition coverage %.2f, uncovered %v", r, res.Coverage.Transitions.Uncovered)
	}
	if r := res.Coverage.Phase.Ratio(); r < 0.9 {
		t.Errorf("phase coverage %.2f, want >= 0.90", r)
	}
}

// TestFalsificationGPCA: on the interference-loaded scheme 3 the search
// must find a schedule violating REQ1's 100 ms bound, reproducibly.
func TestFalsificationGPCA(t *testing.T) {
	tgt := gpcaTarget(t, scheme3)
	res, err := Falsification().Generate(tgt, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatalf("no violation found (worst %v over %d evals)", res.WorstDelay, res.Evals)
	}
	if res.WorstDelay < tgt.Req.Bound {
		t.Errorf("violated but worst response %v under the %v bound", res.WorstDelay, tgt.Req.Bound)
	}
	again, err := Falsification().Generate(tgt, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if again.WorstDelay != res.WorstDelay || len(again.Schedule.Stimuli) != len(res.Schedule.Stimuli) {
		t.Error("falsification is not reproducible from its seed")
	}
}

// TestFalsificationMonotone: the adopted schedule never scores worse
// than the seed schedule — hill-climbing only moves toward the deadline.
func TestFalsificationMonotone(t *testing.T) {
	tgt := gpcaTarget(t, scheme2)
	seedOnly, err := Falsification().Generate(tgt, Options{Seed: 7, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	searched, err := Falsification().Generate(tgt, Options{Seed: 7, Budget: 24})
	if err != nil {
		t.Fatal(err)
	}
	if searched.WorstDelay < seedOnly.WorstDelay {
		t.Errorf("search regressed: %v < seed %v", searched.WorstDelay, seedOnly.WorstDelay)
	}
}

// TestGenerateDeterminism: the full coverage-directed result — schedule,
// verdicts and adequacy — is identical at every worker count.
func TestGenerateDeterminism(t *testing.T) {
	var ref *Result
	for _, k := range []int{1, 2, 4} {
		res, err := CoverageDirected().Generate(gpcaTarget(t, scheme2),
			Options{Seed: 42, Workers: k})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = &res
			continue
		}
		if len(res.Schedule.Stimuli) != len(ref.Schedule.Stimuli) {
			t.Fatalf("workers=%d: stimuli count %d != %d", k, len(res.Schedule.Stimuli), len(ref.Schedule.Stimuli))
		}
		for i := range res.Schedule.Stimuli {
			if res.Schedule.Stimuli[i] != ref.Schedule.Stimuli[i] {
				t.Fatalf("workers=%d: stimulus %d %+v != %+v", k, i, res.Schedule.Stimuli[i], ref.Schedule.Stimuli[i])
			}
		}
		if len(res.Samples) != len(ref.Samples) {
			t.Fatalf("workers=%d: sample count %d != %d", k, len(res.Samples), len(ref.Samples))
		}
		for i := range res.Samples {
			if res.Samples[i] != ref.Samples[i] {
				t.Fatalf("workers=%d: sample %d %+v != %+v", k, i, res.Samples[i], ref.Samples[i])
			}
		}
		if res.Coverage.Transitions.Covered != ref.Coverage.Transitions.Covered ||
			res.Coverage.Phase.Ratio() != ref.Coverage.Phase.Ratio() {
			t.Fatalf("workers=%d: coverage mismatch", k)
		}
	}
}

// falsifyBatch derives a hill-climb-shaped candidate batch: a seed
// schedule plus mutants that each perturb one stimulus.
func falsifyBatch(t *testing.T, tg Target, n int) []Schedule {
	t.Helper()
	tg = tg.normalised()
	rs := sim.NewRand(0x5eed)
	base := seedSchedule(tg, "batch", 4, rs.Uint64())
	scheds := []Schedule{base}
	for len(scheds) < n {
		scheds = append(scheds, mutate(tg, base, rs.Fork()))
	}
	return scheds
}

// TestEvaluateBatchByteIdentity: a candidate batch evaluates to the same
// R verdicts and M samples at every worker count. The
// targets cover both charts and the two pipeline schemes the generation
// pipeline searches.
func TestEvaluateBatchByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target Target
	}{
		{"gpca-scheme3", gpcaTarget(t, scheme3)},
		{"crossing-scheme2", crossingTarget(t, scheme2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tg := tc.target.normalised()
			scheds := falsifyBatch(t, tg, 8)
			ref, err := newMemo(tg, Options{Workers: 1}.normalised()).evaluate(7, scheds)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				got, err := newMemo(tg, Options{Workers: workers}.normalised()).evaluate(7, scheds)
				if err != nil {
					t.Fatal(err)
				}
				if want, got := samplesOf(ref), samplesOf(got); !reflect.DeepEqual(want, got) {
					t.Fatalf("workers=%d: evaluation diverged\nwant: %+v\ngot:  %+v", workers, want, got)
				}
			}
		})
	}
}

// countingMemo returns a fresh memo on tg whose executed evaluations are
// counted through Options.Progress.
func countingMemo(tg Target, executed *int) *memo {
	return newMemo(tg, Options{Workers: 2, Progress: func(campaign.Progress) { *executed++ }}.normalised())
}

// memoFixture returns three GPCA scheme-3 candidates with distinct
// stimuli, and a function that evaluates one candidate alone on a fresh
// memo.
func memoFixture(t *testing.T) (tg Target, a, b, c Schedule, alone func(Schedule) core.Report) {
	t.Helper()
	tg = gpcaTarget(t, scheme3).normalised()
	a = seedSchedule(tg, "a", 2, 1)
	b = seedSchedule(tg, "b", 2, 3)
	c = seedSchedule(tg, "c", 2, 5)
	if reflect.DeepEqual(a.Stimuli, b.Stimuli) || reflect.DeepEqual(a.Stimuli, c.Stimuli) || reflect.DeepEqual(b.Stimuli, c.Stimuli) {
		t.Fatal("seeded schedules coincide; pick other seeds")
	}
	alone = func(s Schedule) core.Report {
		t.Helper()
		outs, err := newMemo(tg, Options{Workers: 1}.normalised()).evaluate(7, []Schedule{s})
		if err != nil {
			t.Fatal(err)
		}
		return outs[0]
	}
	return tg, a, b, c, alone
}

// evalSamples is what a memoised evaluation must reproduce of a report:
// the R verdicts and the M samples. Whole reports never compare equal
// under reflect.DeepEqual, which does not equate the requirement's
// predicate funcs.
type evalSamples struct {
	R []core.SampleResult
	M []core.MSample
}

func samplesOf(reps []core.Report) []evalSamples {
	out := make([]evalSamples, len(reps))
	for i, rep := range reps {
		out[i] = evalSamples{R: rep.R.Samples, M: rep.M.Samples}
	}
	return out
}

// renamed returns a copy of s under another name, as shrinking renames
// candidates; names are not part of the memo key.
func renamed(s Schedule) Schedule {
	r := s.Clone()
	r.Name = s.Name + ".min"
	return r
}

// TestMemoInBatchDedup: a candidate repeated within one batch runs once,
// and the repeat is counted as deduped, not as a hit.
func TestMemoInBatchDedup(t *testing.T) {
	tg, a, b, _, _ := memoFixture(t)
	executed := 0
	m := countingMemo(tg, &executed)
	if _, err := m.evaluate(7, []Schedule{a, b, renamed(a)}); err != nil {
		t.Fatal(err)
	}
	if executed != 2 || m.deduped != 1 || m.hits != 0 {
		t.Errorf("[A B A]: executed %d, deduped %d, hits %d; want 2, 1, 0", executed, m.deduped, m.hits)
	}
}

// TestMemoSecondBatchHits: a later batch of the same search reuses what
// an earlier batch ran and executes only its new candidate.
func TestMemoSecondBatchHits(t *testing.T) {
	tg, a, b, c, _ := memoFixture(t)
	executed := 0
	m := countingMemo(tg, &executed)
	if _, err := m.evaluate(7, []Schedule{a, b}); err != nil {
		t.Fatal(err)
	}
	executed = 0
	if _, err := m.evaluate(8, []Schedule{renamed(a), c}); err != nil {
		t.Fatal(err)
	}
	if executed != 1 || m.hits != 1 || m.deduped != 0 {
		t.Errorf("[A C]: executed %d, hits %d, deduped %d; want 1, 1, 0", executed, m.hits, m.deduped)
	}
}

// TestMemoMatchesFreshEvaluation: at every worker count, outcomes served
// by the memo, whether run in the batch, deduped within it or hit from an
// earlier one, equal each candidate's evaluation on a fresh memo.
func TestMemoMatchesFreshEvaluation(t *testing.T) {
	tg, a, b, c, alone := memoFixture(t)
	wantABA := samplesOf([]core.Report{alone(a), alone(b), alone(a)})
	wantAC := samplesOf([]core.Report{alone(a), alone(c)})
	for _, workers := range []int{1, 2, 4} {
		m := newMemo(tg, Options{Workers: workers}.normalised())
		got, err := m.evaluate(7, []Schedule{a, b, renamed(a)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(samplesOf(got), wantABA) {
			t.Errorf("workers=%d: [A B A] outcomes differ from lone evaluations\nwant: %+v\ngot:  %+v", workers, wantABA, samplesOf(got))
		}
		got, err = m.evaluate(8, []Schedule{a, c})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(samplesOf(got), wantAC) {
			t.Errorf("workers=%d: [A C] outcomes differ from lone evaluations\nwant: %+v\ngot:  %+v", workers, wantAC, samplesOf(got))
		}
	}
}

// TestMemoSkipsErrors: a failed evaluation is not memoised, so the same
// candidate runs, and fails, again on the next batch.
func TestMemoSkipsErrors(t *testing.T) {
	tg := gpcaTarget(t, scheme2).normalised()
	// Primary stimuli out of order: Runner.Setup rejects the test case.
	bad := Schedule{Name: "bad", Stimuli: []Stimulus{
		primaryStimulus(tg, 5*time.Second), primaryStimulus(tg, time.Second),
	}}
	executed := 0
	m := countingMemo(tg, &executed)
	for batch := 1; batch <= 2; batch++ {
		if _, err := m.evaluate(7, []Schedule{bad}); err == nil {
			t.Fatalf("batch %d: out-of-order schedule evaluated without error", batch)
		}
		if executed != batch {
			t.Errorf("batch %d: %d evaluations executed, want %d", batch, executed, batch)
		}
	}
	if m.hits != 0 {
		t.Errorf("a failed evaluation was answered from the memo (%d hits)", m.hits)
	}
}

// TestStimuliKeyExact: the memo key of a candidate's stimuli equals the
// key of an equal copy and differs whenever any one field of any one
// stimulus differs, the number of stimuli differs, or signal names whose
// bytes run together are split differently.
func TestStimuliKeyExact(t *testing.T) {
	base := []Stimulus{
		{Signal: "bolus", Value: 1, Rest: 0, Width: 60 * time.Millisecond, At: time.Second},
		{Signal: "empty", Value: 1, Rest: 0, Width: time.Second, At: 2 * time.Second, Aux: true},
	}
	edits := map[string]func(s *Stimulus){
		"Signal": func(s *Stimulus) { s.Signal += "x" },
		"Value":  func(s *Stimulus) { s.Value++ },
		"Rest":   func(s *Stimulus) { s.Rest-- },
		"Width":  func(s *Stimulus) { s.Width++ },
		"At":     func(s *Stimulus) { s.At++ },
		"Aux":    func(s *Stimulus) { s.Aux = !s.Aux },
	}
	key := stimuliKey(base)
	if got := stimuliKey(append([]Stimulus(nil), base...)); got != key {
		t.Fatal("equal stimuli give different keys")
	}
	for i := range base {
		for field, edit := range edits {
			ss := append([]Stimulus(nil), base...)
			edit(&ss[i])
			if stimuliKey(ss) == key {
				t.Errorf("stimulus %d: a different %s gives the same key", i, field)
			}
		}
	}
	if stimuliKey(base[:1]) == key || stimuliKey(nil) == stimuliKey(base[:1]) {
		t.Error("a different number of stimuli gives the same key")
	}
	split := func(a, b string) string {
		return stimuliKey([]Stimulus{{Signal: a}, {Signal: b}})
	}
	if split("ab", "c") == split("a", "bc") {
		t.Error(`{"ab", "c"} and {"a", "bc"} give the same key`)
	}
	// A name that ends in the bytes of a zero stimulus's fields runs into
	// the next stimulus unless each name carries its length.
	zeros := string(make([]byte, 4*8+1))
	if split("a"+zeros, "b") == split("a", zeros+"b") {
		t.Error("names that end or start in field bytes give the same key")
	}
}

// TestTargetValidate: a target without a system or requirement is
// rejected before any evaluation is spent.
func TestTargetValidate(t *testing.T) {
	if _, err := CoverageDirected().Generate(Target{}, Options{}); err == nil {
		t.Error("empty target accepted")
	}
	tgt := gpcaTarget(t, scheme2)
	tgt.Scheme = nil
	if _, err := CoverageDirected().Generate(tgt, Options{}); err == nil {
		t.Error("target without scheme accepted")
	}
}

// TestProbePlannerGPCA: the planner finds a drivable chain for every
// GPCA transition from the initial configuration — including the
// alarm-side transitions a bolus-only suite never touches.
func TestProbePlannerGPCA(t *testing.T) {
	tgt := gpcaTarget(t, scheme2).normalised()
	p := newProbePlanner(tgt)
	for _, tr := range tgt.Prebuilt.Program().Trans {
		if _, _, _, ok := p.probe(tr, 0); !ok {
			t.Errorf("no probe chain for %s", tr.Label)
		}
	}
	if un := p.unreachable(); len(un) > 0 {
		t.Errorf("unreachable: %v", un)
	}
}
