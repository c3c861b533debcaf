package verify

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rmtest/internal/gpca"
	"rmtest/internal/statechart"
)

func compileGPCA(t *testing.T) *statechart.Compiled {
	t.Helper()
	cc, err := gpca.Chart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// req1Prop is REQ1 at model level: o_MotorState reaches >= 1 within 100
// ticks of i_BolusReq in Idle.
func req1Prop() ResponseProperty {
	return ResponseProperty{
		Name:        "REQ1-model",
		Event:       "i_BolusReq",
		InState:     "Idle",
		Output:      "o_MotorState",
		Target:      func(v int64) bool { return v >= 1 },
		TargetDesc:  ">= 1",
		WithinTicks: 100,
	}
}

func TestREQ1HoldsOnModel(t *testing.T) {
	res, err := CheckResponse(compileGPCA(t), req1Prop(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Holds {
		t.Fatalf("REQ1 should hold on the model: %v", res)
	}
	if res.Visited < 10 {
		t.Fatalf("suspiciously few states visited: %d", res.Visited)
	}
}

func TestZeroTickDeadlineHoldsBecauseSuperStep(t *testing.T) {
	// The model starts the bolus in the same tick (super-step), so even
	// a 0-tick deadline holds.
	p := req1Prop()
	p.WithinTicks = 0
	res, err := CheckResponse(compileGPCA(t), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Holds {
		t.Fatalf("expected holds: %v", res)
	}
}

// slowChart delays its response behind after(5, E_CLK).
func slowChart(t *testing.T) *statechart.Compiled {
	t.Helper()
	c := &statechart.Chart{
		Name:       "slow",
		TickPeriod: time.Millisecond,
		Events:     []string{"go"},
		Vars:       []statechart.VarDecl{{Name: "out", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "Idle",
		States: []*statechart.State{
			{Name: "Idle", Transitions: []statechart.Transition{{To: "Wait", Trigger: "go"}}},
			{Name: "Wait", Transitions: []statechart.Transition{
				{To: "Done", Trigger: "after(5, E_CLK)", Action: "out := 1"},
			}},
			{Name: "Done", Transitions: []statechart.Transition{{To: "Idle", Trigger: "go", Action: "out := 0"}}},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// slowProp asks slowChart for its response within the given ticks.
func slowProp(within int64) ResponseProperty {
	return ResponseProperty{
		Name: "fast-response", Event: "go", InState: "Idle",
		Output: "out", Target: func(v int64) bool { return v == 1 },
		WithinTicks: within,
	}
}

func TestViolationFoundWithCounterexample(t *testing.T) {
	// A model that delays the response behind after(5, E_CLK) violates a
	// 3-tick deadline.
	cc := slowChart(t)
	prop := slowProp(3)
	res, err := CheckResponse(cc, prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Violated {
		t.Fatalf("expected violation: %v", res)
	}
	if len(res.Counterexample) == 0 {
		t.Fatal("missing counterexample")
	}
	// The counterexample must include the triggering event.
	foundTrigger := false
	for _, s := range res.Counterexample {
		for _, e := range s.Events {
			if e == "go" {
				foundTrigger = true
			}
		}
	}
	if !foundTrigger {
		t.Fatalf("counterexample lacks trigger: %+v", res.Counterexample)
	}
	// And it holds with a 5-tick deadline.
	prop.WithinTicks = 5
	res, err = CheckResponse(cc, prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Holds {
		t.Fatalf("expected holds at 5 ticks: %v", res)
	}
	// But violates again at 4.
	prop.WithinTicks = 4
	res, _ = CheckResponse(cc, prop, Options{})
	if res.Outcome != Violated {
		t.Fatalf("expected violation at 4 ticks: %v", res)
	}
}

// guardedChart responds to go only when the input enable is 1.
func guardedChart(t *testing.T) *statechart.Compiled {
	t.Helper()
	c := &statechart.Chart{
		Name:       "guarded",
		TickPeriod: time.Millisecond,
		Events:     []string{"go"},
		Vars: []statechart.VarDecl{
			{Name: "enable", Type: statechart.Bool, Kind: statechart.Input},
			{Name: "out", Type: statechart.Int, Kind: statechart.Output},
		},
		Initial: "Idle",
		States: []*statechart.State{
			{Name: "Idle", Transitions: []statechart.Transition{
				{To: "Done", Trigger: "go", Guard: "enable == 1", Action: "out := 1"},
			}},
			{Name: "Done"},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// guardedProp asks guardedChart for its response within 2 ticks.
func guardedProp() ResponseProperty {
	return ResponseProperty{
		Name: "resp", Event: "go", InState: "Idle", Output: "out",
		Target: func(v int64) bool { return v == 1 }, WithinTicks: 2,
	}
}

func TestGuardedResponseDependsOnInputDomain(t *testing.T) {
	// Response only happens when enable==1; with the full {0,1} domain
	// the property is violated, with domain {1} it holds.
	cc := guardedChart(t)
	prop := guardedProp()
	res, err := CheckResponse(cc, prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Violated {
		t.Fatalf("with enable=0 possible, property must be violated: %v", res)
	}
	res, err = CheckResponse(cc, prop, Options{InputDomains: map[string][]int64{"enable": {1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Holds {
		t.Fatalf("with enable pinned to 1, property must hold: %v", res)
	}
}

func TestBoundedOutcomeOnTinyBudget(t *testing.T) {
	res, err := CheckResponse(compileGPCA(t), req1Prop(), Options{MaxVisited: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Bounded {
		t.Fatalf("expected bounded: %v", res)
	}
}

func TestPropertyValidation(t *testing.T) {
	cc := compileGPCA(t)
	bad := []ResponseProperty{
		{},
		{Event: "i_Ghost", Output: "o_MotorState", Target: func(int64) bool { return true }},
		{Event: "i_BolusReq", Output: "o_Ghost", Target: func(int64) bool { return true }},
		{Event: "i_BolusReq", Output: "o_MotorState", Target: func(int64) bool { return true }, InState: "Nowhere"},
		{Event: "i_BolusReq", Output: "o_MotorState", Target: func(int64) bool { return true }, WithinTicks: -1},
	}
	for i, p := range bad {
		if _, err := CheckResponse(cc, p, Options{}); err == nil {
			t.Errorf("property %d should be rejected", i)
		}
	}
}

func TestAlarmPropertyHolds(t *testing.T) {
	// Model-level REQ2: buzzer within 0 ticks of i_EmptyAlarm from Idle.
	prop := ResponseProperty{
		Name: "REQ2-model", Event: "i_EmptyAlarm", InState: "Idle",
		Output: "o_BuzzerState", Target: func(v int64) bool { return v == 1 },
		WithinTicks: 0,
	}
	res, err := CheckResponse(compileGPCA(t), prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Holds {
		t.Fatalf("REQ2 should hold: %v", res)
	}
}

func TestResultString(t *testing.T) {
	res, err := CheckResponse(compileGPCA(t), req1Prop(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "holds") {
		t.Fatalf("string: %s", res.String())
	}
}

func TestEnumerateHelpers(t *testing.T) {
	subs := enumerateSubsets([]string{"a", "b"})
	if len(subs) != 4 {
		t.Fatalf("subsets=%v", subs)
	}
	ins := enumerateInputs([]string{"x", "y"}, map[string][]int64{"x": {0, 5, 9}})
	if len(ins) != 6 { // 3 values for x times default {0,1} for y
		t.Fatalf("inputs=%v", ins)
	}
}

func TestInvariantHolds(t *testing.T) {
	// Safety: the motor never runs while the chart is in EmptyAlarm.
	res, err := CheckInvariant(compileGPCA(t), InvariantProperty{
		Name: "no-motor-in-alarm", Reads: []string{"o_MotorState"},
		Holds: func(state string, vars map[string]int64) bool {
			return state != "EmptyAlarm" || vars["o_MotorState"] == 0
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Holds {
		t.Fatalf("invariant should hold: %v", res)
	}
}

// TestInvariantAllocatesPerStateNotPerSuccessor: the invariant check
// hands its predicate one map, refilled for every step it judges, and
// keeps the states it finds in storage that grows a chunk or a doubling
// at a time (records, visited keys, step classes and their tables, and
// the queue of rows not yet expanded), with no heap object per state. On
// gpca's no-motor-in-alarm, whose 12,003 states have about five
// successors each, that is at most 0.05 allocations per state (about 100
// in all); a
// fresh valuation per successor makes about twenty per state, and a
// snapshot, frontier node and key per state three.
func TestInvariantAllocatesPerStateNotPerSuccessor(t *testing.T) {
	cc := compileGPCA(t)
	prop := InvariantProperty{
		Name: "no-motor-in-alarm", Reads: []string{"o_MotorState"},
		Holds: func(state string, vars map[string]int64) bool {
			return state != "EmptyAlarm" || vars["o_MotorState"] == 0
		},
	}
	var res Result
	var err error
	allocs := testing.AllocsPerRun(1, func() { res, err = CheckInvariant(cc, prop, Options{}) })
	if err != nil || res.Outcome != Holds || res.Visited != 12003 {
		t.Fatalf("got %v with %d states (%v), want Holds with 12003", res.Outcome, res.Visited, err)
	}
	if perState := allocs / float64(res.Visited); perState > 0.05 {
		t.Fatalf("%.0f allocations for %d states: %.3f per state, want at most 0.05", allocs, res.Visited, perState)
	}
}

func TestInvariantViolationFound(t *testing.T) {
	// A deliberately false invariant: the motor never runs at all.
	res, err := CheckInvariant(compileGPCA(t), InvariantProperty{
		Name: "motor-never-runs", Reads: []string{"o_MotorState"},
		Holds: func(state string, vars map[string]int64) bool {
			return vars["o_MotorState"] == 0
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Violated {
		t.Fatalf("expected violation: %v", res)
	}
	if len(res.Counterexample) == 0 {
		t.Fatal("missing counterexample")
	}
	// The final step of the counterexample must be the bolus request.
	last := res.Counterexample[len(res.Counterexample)-1]
	found := false
	for _, e := range last.Events {
		if e == "i_BolusReq" {
			found = true
		}
	}
	if !found {
		t.Fatalf("counterexample should end with the bolus request: %+v", last)
	}
}

func TestInvariantValidation(t *testing.T) {
	if _, err := CheckInvariant(compileGPCA(t), InvariantProperty{}, Options{}); err == nil {
		t.Fatal("nil predicate should be rejected")
	}
}

func TestInvariantBounded(t *testing.T) {
	res, err := CheckInvariant(compileGPCA(t), InvariantProperty{
		Name:  "x",
		Holds: func(string, map[string]int64) bool { return true },
	}, Options{MaxVisited: 5})
	if err != nil || res.Outcome != Bounded {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestHierarchicalChartResponse(t *testing.T) {
	// A hierarchical controller: the parent-level abort transition must
	// respond from any child.
	c := &statechart.Chart{
		Name:       "hierv",
		TickPeriod: time.Millisecond,
		Events:     []string{"go", "abort", "inner"},
		Vars:       []statechart.VarDecl{{Name: "out", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "Off",
		States: []*statechart.State{
			{Name: "Off", Transitions: []statechart.Transition{{To: "On", Trigger: "go"}}},
			{
				Name:    "On",
				Initial: "A",
				// Entering On resets the indicator, so every abort produces
				// an observable o-event. (Without the reset the checker
				// correctly finds a violation: a second abort writes 99
				// over 99, which is no value change and hence no o-event.)
				Entry: "out := 0",
				Transitions: []statechart.Transition{
					{To: "Off", Trigger: "abort", Action: "out := 99"},
				},
				Children: []*statechart.State{
					{Name: "A", Transitions: []statechart.Transition{{To: "B", Trigger: "inner"}}},
					{Name: "B", Transitions: []statechart.Transition{{To: "A", Trigger: "inner"}}},
				},
			},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckResponse(cc, ResponseProperty{
		Name: "abort-response", Event: "abort", InState: "On",
		Output: "out", Target: func(v int64) bool { return v == 99 },
		WithinTicks: 0,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Holds {
		t.Fatalf("parent transition must respond from any child: %v", res)
	}
}

func TestExtendedGPCABoundedGracefully(t *testing.T) {
	// The extended chart has a 60000-tick counter; the checker must stay
	// within its budget and report Bounded rather than hanging.
	cc, err := gpca.ExtendedChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckResponse(cc, ResponseProperty{
		Name: "bolus-in-basal", Event: "i_BolusReq", InState: "Basal",
		Output: "o_MotorState", Target: func(v int64) bool { return v >= 10 },
		WithinTicks: 10,
	}, Options{MaxVisited: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == Violated {
		t.Fatalf("no violation expected within the bounded exploration: %v", res)
	}
	if res.Visited > 3000 {
		t.Fatalf("budget exceeded: %d", res.Visited)
	}
}

// manyEventsChart declares n events e00, e01, ...; e00 leads from Idle to
// Stuck, which never writes the output, so a response to e00 is violated.
func manyEventsChart(t *testing.T, n int) *statechart.Compiled {
	t.Helper()
	c := &statechart.Chart{
		Name:       "many",
		TickPeriod: time.Millisecond,
		Vars:       []statechart.VarDecl{{Name: "out", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "Idle",
		States: []*statechart.State{
			{Name: "Idle", Transitions: []statechart.Transition{{To: "Stuck", Trigger: "e00"}}},
			{Name: "Stuck"},
		},
	}
	for i := 0; i < n; i++ {
		c.Events = append(c.Events, fmt.Sprintf("e%02d", i))
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// manyInputsChart declares the event go and n boolean inputs in00, ...
func manyInputsChart(t *testing.T, n int) *statechart.Compiled {
	t.Helper()
	c := &statechart.Chart{
		Name:       "inputs",
		TickPeriod: time.Millisecond,
		Events:     []string{"go"},
		Vars:       []statechart.VarDecl{{Name: "out", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "Idle",
		States: []*statechart.State{
			{Name: "Idle", Transitions: []statechart.Transition{{To: "Idle", Trigger: "go", Action: "out := 1 - out"}}},
		},
	}
	for i := 0; i < n; i++ {
		c.Vars = append(c.Vars, statechart.VarDecl{Name: fmt.Sprintf("in%02d", i), Type: statechart.Bool, Kind: statechart.Input})
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// TestCheckersRejectWhatTheyCannotExplore covers inputs that used to make
// the checkers report "holds" without exploring, explore the wrong
// state space, or panic. Each must be an error from the checker that
// receives it.
func TestCheckersRejectWhatTheyCannotExplore(t *testing.T) {
	respond := func(cc *statechart.Compiled, event string, opt Options) error {
		_, err := CheckResponse(cc, ResponseProperty{
			Name: "resp", Event: event, Output: "out",
			Target: func(v int64) bool { return v == 1 }, WithinTicks: 2,
		}, opt)
		return err
	}
	invariant := func(cc *statechart.Compiled, reads []string, opt Options) error {
		_, err := CheckInvariant(cc, InvariantProperty{
			Name: "inv", Reads: reads,
			Holds: func(string, map[string]int64) bool { return true },
		}, opt)
		return err
	}
	bolusCount := func(reads ...string) error {
		_, err := CheckInvariant(compileGPCA(t), InvariantProperty{
			Name: "fewer-than-3-boluses", Reads: reads,
			Holds: func(_ string, vars map[string]int64) bool { return vars["bolus_count"] < 3 },
		}, Options{})
		return err
	}
	misspeltDomain := Options{InputDomains: map[string][]int64{"enabel": {1}}}
	outputDomain := Options{InputDomains: map[string][]int64{"out": {0}}}
	for _, tc := range []struct {
		name string
		err  func() error
	}{
		{"63 events, response", func() error { return respond(manyEventsChart(t, 63), "e00", Options{}) }},
		{"63 events, invariant", func() error { return invariant(manyEventsChart(t, 63), nil, Options{}) }},
		{"64 events, response", func() error { return respond(manyEventsChart(t, 64), "e00", Options{}) }},
		{"64 events, invariant", func() error { return invariant(manyEventsChart(t, 64), nil, Options{}) }},
		{"17 boolean inputs, response", func() error { return respond(manyInputsChart(t, 17), "go", Options{}) }},
		{"17 boolean inputs, invariant", func() error { return invariant(manyInputsChart(t, 17), nil, Options{}) }},
		{"misspelt Reads name", func() error { return bolusCount("bolus_cnt") }},
		{"misspelt InputDomains key, response", func() error { return respond(guardedChart(t), "go", misspeltDomain) }},
		{"misspelt InputDomains key, invariant", func() error { return invariant(guardedChart(t), nil, misspeltDomain) }},
		{"output as InputDomains key, response", func() error { return respond(guardedChart(t), "go", outputDomain) }},
		{"output as InputDomains key, invariant", func() error { return invariant(guardedChart(t), nil, outputDomain) }},
	} {
		if err := tc.err(); err == nil {
			t.Errorf("%s: want an error, got none", tc.name)
		}
	}
}

// TestSuccessorBoundAdmitsTheLimit checks the successor bound is
// inclusive: 16 events alone, or 1 event and 15 boolean inputs, give
// exactly 65,536 successors per state and are explored.
func TestSuccessorBoundAdmitsTheLimit(t *testing.T) {
	if !withinSuccessorBound(16, nil, nil) || withinSuccessorBound(17, nil, nil) {
		t.Error("2^16 event subsets must be admitted and 2^17 rejected")
	}
	inputs := make([]string, 15)
	if !withinSuccessorBound(1, inputs, nil) || withinSuccessorBound(2, inputs, nil) {
		t.Error("2 × 2^15 successors must be admitted and 4 × 2^15 rejected")
	}
	if withinSuccessorBound(0, []string{"x", "y"}, map[string][]int64{"x": make([]int64, 1<<9), "y": make([]int64, 1<<8)}) {
		t.Error("2^17 input combinations must be rejected")
	}
	res, err := CheckResponse(manyEventsChart(t, 16), ResponseProperty{
		Name: "resp", Event: "e00", Output: "out",
		Target: func(v int64) bool { return v == 1 }, WithinTicks: 2,
	}, Options{})
	if err != nil || res.Outcome != Violated {
		t.Fatalf("16 events: %v, %v; want a violation", res, err)
	}
}

// TestInvariantReadsLocalCounter is the misspelt-Reads row's control: with
// the name spelt right, the bolus counter stays in the state key and the
// invariant is violated on the third bolus.
func TestInvariantReadsLocalCounter(t *testing.T) {
	res, err := CheckInvariant(compileGPCA(t), InvariantProperty{
		Name: "fewer-than-3-boluses", Reads: []string{"bolus_count"},
		Holds: func(_ string, vars map[string]int64) bool { return vars["bolus_count"] < 3 },
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Violated || res.Visited != 17 || len(res.Counterexample) != 3 {
		t.Fatalf("want a violation after 3 boluses, 17 states in: %v", res)
	}
}
