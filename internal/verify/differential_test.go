package verify

import (
	"fmt"
	"reflect"
	"testing"

	"rmtest/internal/randchart"
	"rmtest/internal/sim"
)

// checkerCase is one property on a random chart, checked by the
// production checker and by the oracle.
type checkerCase struct {
	seed uint64 // draws the chart
	// The response property: event and output index randchart's events
	// and outputs, state indexes the chart's states (one past the last
	// means any state), and the target is v >= threshold.
	event, output, state uint8
	threshold            int8
	deadline             uint8 // WithinTicks, taken mod 6
	maxVisited           uint16
	domain               uint8 // in0's domain: the default {0, 1}, with 0, or without
}

var checkerDomains = [][]int64{nil, {0, 1, 2, 3}, {1, 2, 3}}

// run checks the case's response property, and an invariant on the same
// output (in every state but the chosen one, the output stays below the
// threshold), with both checkers, and fails t on any difference in
// outcome, state count, counterexample or error-ness. It returns the
// results of the checks that did not fail, how many failed, and the
// steps the checker and the oracle ran over all of them.
func (c checkerCase) run(t *testing.T) (results []Result, errs int, steps, oracleSteps uint64) {
	t.Helper()
	cc, err := randchart.Chart(sim.NewRand(c.seed)).Compile()
	if err != nil {
		t.Fatalf("%+v: compile: %v", c, err)
	}
	output := []string{"out0", "out1"}[c.output%2]
	states := cc.StateNames()
	var inState string
	if i := int(c.state) % (len(states) + 1); i < len(states) {
		inState = states[i]
	}
	threshold := int64(c.threshold)
	opt := Options{
		MaxVisited:   1 + int(c.maxVisited)%2500,
		InputDomains: map[string][]int64{"in0": checkerDomains[int(c.domain)%len(checkerDomains)]},
	}
	resp := ResponseProperty{
		Name: "resp", Event: []string{"e0", "e1", "e2"}[c.event%3], InState: inState, Output: output,
		Target:      func(v int64) bool { return v >= threshold },
		WithinTicks: int64(c.deadline % 6),
	}
	inv := InvariantProperty{
		Name: "inv", Reads: []string{output},
		Holds: func(state string, vars map[string]int64) bool {
			return state == inState || vars[output] < threshold
		},
	}
	for _, check := range []struct {
		what         string
		prod, oracle func() (Result, error)
	}{
		{"response",
			func() (Result, error) { return CheckResponse(cc, resp, opt) },
			func() (Result, error) { return oracleResponse(cc, resp, opt) }},
		{"invariant",
			func() (Result, error) { return CheckInvariant(cc, inv, opt) },
			func() (Result, error) { return oracleInvariant(cc, inv, opt) }},
	} {
		got, errGot := check.prod()
		want, errWant := check.oracle()
		got.Property.Target, want.Property.Target = nil, nil
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%+v %s: error %v, oracle's %v", c, check.what, errGot, errWant)
		}
		// The oracle steps every stimulus; the checker skips those a
		// step already run covers, so it may step less, never more.
		if got.Steps > want.Steps {
			t.Fatalf("%+v %s: %d steps, the oracle's %d", c, check.what, got.Steps, want.Steps)
		}
		steps, oracleSteps = steps+got.Steps, oracleSteps+want.Steps
		got.Steps, want.Steps = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v %s:\n got %s\nwant %s", c, check.what, detail(got), detail(want))
		}
		if errGot != nil {
			errs++
		} else {
			results = append(results, got)
		}
	}
	return results, errs, steps, oracleSteps
}

// detail renders a result with each counterexample step's inputs.
func detail(r Result) string {
	s := r.String()
	for i, step := range r.Counterexample {
		s += fmt.Sprintf("\n  tick %d inputs %v", i, step.Inputs)
	}
	return s
}

// TestCheckerMatchesInterpreter runs the production checker, which steps
// the generated code, and the oracle, which steps the chart interpreter,
// on random charts with random response properties and invariants. A
// random state budget makes bounded results pin the exploration order
// too. Results must be deeply equal, and both must fail or neither. The
// checker steps each step class once, so over all the checks it must
// run well under the oracle's steps.
func TestCheckerMatchesInterpreter(t *testing.T) {
	outcomes := map[Outcome]int{}
	var errs int
	var steps, oracleSteps uint64
	for seed := uint64(1); seed <= 400; seed++ {
		r := sim.NewRand(seed ^ 0x5eed)
		for range 2 {
			c := checkerCase{
				seed: seed, event: uint8(r.Intn(3)), output: uint8(r.Intn(2)),
				state: uint8(r.Intn(16)), threshold: int8(r.Intn(5)), deadline: uint8(r.Intn(6)),
				maxVisited: uint16(r.Intn(2500)), domain: uint8(r.Intn(3)),
			}
			results, n, s, o := c.run(t)
			errs += n
			steps, oracleSteps = steps+s, oracleSteps+o
			for _, res := range results {
				outcomes[res.Outcome]++
			}
		}
	}
	t.Logf("outcomes %v, %d errors; %d steps, the oracle's %d", outcomes, errs, steps, oracleSteps)
	for _, o := range []Outcome{Holds, Violated, Bounded} {
		if outcomes[o] == 0 {
			t.Errorf("no check came out %v: the differential does not cover it", o)
		}
	}
	if errs == 0 {
		t.Error("no check failed with a model error: the differential does not cover errors")
	}
	// Stepping every stimulus class of every state runs about a quarter
	// of the oracle's steps here; stepping each step class once, about a
	// tenth.
	if steps*6 > oracleSteps {
		t.Errorf("%d steps against the oracle's %d: above a sixth, so step classes are rarely shared", steps, oracleSteps)
	}
}

// FuzzCheckerMatchesInterpreter is TestCheckerMatchesInterpreter over
// fuzzed charts and property parameters.
func FuzzCheckerMatchesInterpreter(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(15), int8(1), uint8(2), uint16(300), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, event, output, state uint8, threshold int8, deadline uint8, maxVisited uint16, domain uint8) {
		checkerCase{seed, event, output, state, threshold, deadline, maxVisited, domain}.run(t)
	})
}
