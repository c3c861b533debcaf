package verify

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rmtest/internal/gpca"
	"rmtest/internal/railcrossing"
	"rmtest/internal/statechart"
)

const resultsGolden = "testdata/results.txt"

// goldenCheck is one pinned verification: a property on a chart, run by
// CheckResponse or CheckInvariant.
type goldenCheck struct {
	label string
	run   func() (Result, error)
}

// goldenChecks lists every shipped property, restated here as the
// rmtest command, the railcrossing example and the tests declare them.
func goldenChecks(t *testing.T) []goldenCheck {
	pump := compileGPCA(t)
	ext, err := gpca.ExtendedChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	crossing, err := railcrossing.Chart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	slow, guarded := slowChart(t), guardedChart(t)
	response := func(label string, cc *statechart.Compiled, p ResponseProperty, opt Options) goldenCheck {
		return goldenCheck{label, func() (Result, error) { return CheckResponse(cc, p, opt) }}
	}
	invariant := func(label string, cc *statechart.Compiled, p InvariantProperty) goldenCheck {
		return goldenCheck{label, func() (Result, error) { return CheckInvariant(cc, p, Options{}) }}
	}
	return []goldenCheck{
		response("gpca REQ1-model", pump, req1Prop(), Options{}),
		response("gpca REQ2-model", pump, ResponseProperty{
			Name: "REQ2-model", Event: "i_EmptyAlarm", InState: "Idle",
			Output: "o_BuzzerState", Target: func(v int64) bool { return v == 1 },
			TargetDesc: "== 1", WithinTicks: 250,
		}, Options{}),
		response("gpca REQ3-model", pump, ResponseProperty{
			Name: "REQ3-model", Event: "i_ClearAlarm", InState: "EmptyAlarm",
			Output: "o_BuzzerState", Target: func(v int64) bool { return v == 0 },
			TargetDesc: "== 0", WithinTicks: 200,
		}, Options{}),
		invariant("gpca no-motor-in-alarm", pump, InvariantProperty{
			Name: "no-motor-in-alarm", Reads: []string{"o_MotorState"},
			Holds: func(state string, vars map[string]int64) bool {
				return state != "EmptyAlarm" || vars["o_MotorState"] == 0
			},
		}),
		invariant("gpca motor-never-runs", pump, InvariantProperty{
			Name: "motor-never-runs", Reads: []string{"o_MotorState"},
			Holds: func(state string, vars map[string]int64) bool {
				return vars["o_MotorState"] == 0
			},
		}),
		response("gpca-extended bolus-in-basal", ext, ResponseProperty{
			Name: "bolus-in-basal", Event: "i_BolusReq", InState: "Basal",
			Output: "o_MotorState", Target: func(v int64) bool { return v >= 10 },
			WithinTicks: 10,
		}, Options{MaxVisited: 3000}),
		response("railcrossing gate-lowering", crossing, ResponseProperty{
			Name: "gate-lowering", Event: "i_Approach", InState: "Open",
			Output: "o_Gate", Target: func(v int64) bool { return v == 1 },
			TargetDesc: "== 1 (lowering)", WithinTicks: 200,
		}, Options{}),
		response("railcrossing lights-on", crossing, ResponseProperty{
			Name: "lights-on", Event: "i_Approach", InState: "Open",
			Output: "o_Lights", Target: func(v int64) bool { return v == 1 },
			TargetDesc: "== 1", WithinTicks: 100,
		}, Options{}),
		response("slow within 3", slow, slowProp(3), Options{}),
		response("slow within 4", slow, slowProp(4), Options{}),
		response("slow within 5", slow, slowProp(5), Options{}),
		response("guarded enable in {0,1}", guarded, guardedProp(), Options{}),
		response("guarded enable in {1}", guarded, guardedProp(),
			Options{InputDomains: map[string][]int64{"enable": {1}}}),
	}
}

// renderResult writes a result's outcome, state count and full
// counterexample, with each tick's inputs in name order.
func renderResult(b *bytes.Buffer, label string, res Result) {
	fmt.Fprintf(b, "== %s ==\noutcome: %v\nvisited: %d\n", label, res.Outcome, res.Visited)
	for i, s := range res.Counterexample {
		names := make([]string, 0, len(s.Inputs))
		for n := range s.Inputs {
			names = append(names, n)
		}
		sort.Strings(names)
		ins := make([]string, len(names))
		for j, n := range names {
			ins[j] = fmt.Sprintf("%s=%d", n, s.Inputs[n])
		}
		fmt.Fprintf(b, "tick %d: events=[%s] inputs=[%s] state=%s\n",
			i, strings.Join(s.Events, " "), strings.Join(ins, " "), s.State)
	}
}

// TestVerifyResultsGolden pins every shipped property's outcome, visited
// state count and counterexample. Run with UPDATE_GOLDEN=1 to regenerate
// testdata/results.txt, only after reviewing why a result moved.
func TestVerifyResultsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenChecks(t) {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		renderResult(&got, c.label, res)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(resultsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(resultsGolden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("verification results differ from %s:\n%s", resultsGolden, got.String())
	}
}
