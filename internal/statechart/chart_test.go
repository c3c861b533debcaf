package statechart

import (
	"testing"
	"time"
)

// pumpChart reproduces Fig. 2 of the paper: the infusion pump statechart
// with Idle, BolusRequested, Infusion and EmptyAlarm states. The tick is
// 1 ms, so before(100, E_CLK) is the 100 ms bolus-start window and
// at(4000, E_CLK) is the 4 s bolus duration.
func pumpChart() *Chart {
	return &Chart{
		Name:       "pump",
		TickPeriod: time.Millisecond,
		Events:     []string{"i_BolusReq", "i_EmptyAlarm", "i_ClearAlarm"},
		Vars: []VarDecl{
			{Name: "o_MotorState", Type: Int, Kind: Output},
			{Name: "o_BuzzerState", Type: Bool, Kind: Output},
		},
		Initial: "Idle",
		States: []*State{
			{
				Name: "Idle",
				Transitions: []Transition{
					{To: "BolusRequested", Trigger: "i_BolusReq"},
					{To: "EmptyAlarm", Trigger: "i_EmptyAlarm",
						Action: "o_MotorState := 0; o_BuzzerState := 1"},
				},
			},
			{
				Name: "BolusRequested",
				Transitions: []Transition{
					{To: "Infusion", Trigger: "before(100, E_CLK)",
						Action: "o_MotorState := 1"},
				},
			},
			{
				Name: "Infusion",
				Transitions: []Transition{
					{To: "Idle", Trigger: "at(4000, E_CLK)",
						Action: "o_MotorState := 0"},
					{To: "EmptyAlarm", Trigger: "i_EmptyAlarm",
						Action: "o_MotorState := 0; o_BuzzerState := 1"},
				},
			},
			{
				Name: "EmptyAlarm",
				Transitions: []Transition{
					{To: "Idle", Trigger: "i_ClearAlarm",
						Action: "o_BuzzerState := 0"},
				},
			},
		},
	}
}

func compilePump(t *testing.T) *Compiled {
	t.Helper()
	cc, err := pumpChart().Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

func TestCompilePumpChart(t *testing.T) {
	cc := compilePump(t)
	if got := cc.InitialLeaf(); got != "Idle" {
		t.Fatalf("initial %q", got)
	}
	if cc.TransitionCount() != 6 {
		t.Fatalf("transitions %d", cc.TransitionCount())
	}
	if len(cc.StateNames()) != 4 {
		t.Fatalf("states %v", cc.StateNames())
	}
	outs := cc.VarNames(Output)
	if len(outs) != 2 || outs[0] != "o_BuzzerState" || outs[1] != "o_MotorState" {
		t.Fatalf("outputs %v", outs)
	}
}

func TestCompileErrors(t *testing.T) {
	base := func() *Chart { return pumpChart() }
	cases := []struct {
		name   string
		mutate func(*Chart)
	}{
		{"empty name", func(c *Chart) { c.Name = "" }},
		{"zero tick", func(c *Chart) { c.TickPeriod = 0 }},
		{"dup state", func(c *Chart) { c.States = append(c.States, &State{Name: "Idle"}) }},
		{"dup event", func(c *Chart) { c.Events = append(c.Events, "i_BolusReq") }},
		{"dup var", func(c *Chart) {
			c.Vars = append(c.Vars, VarDecl{Name: "o_MotorState", Kind: Output})
		}},
		{"event-var clash", func(c *Chart) {
			c.Vars = append(c.Vars, VarDecl{Name: "i_BolusReq", Kind: Input})
		}},
		{"bad target", func(c *Chart) {
			c.States[0].Transitions[0].To = "Nowhere"
		}},
		{"undeclared trigger event", func(c *Chart) {
			c.States[0].Transitions[0].Trigger = "i_Ghost"
		}},
		{"bad guard", func(c *Chart) {
			c.States[0].Transitions[0].Guard = "1 +"
		}},
		{"guard refs unknown var", func(c *Chart) {
			c.States[0].Transitions[0].Guard = "ghost > 0"
		}},
		{"action writes input", func(c *Chart) {
			c.Vars = append(c.Vars, VarDecl{Name: "in1", Kind: Input})
			c.States[0].Transitions[0].Action = "in1 := 1"
		}},
		{"action writes unknown", func(c *Chart) {
			c.States[0].Transitions[0].Action = "ghost := 1"
		}},
		{"bad initial", func(c *Chart) { c.Initial = "Nowhere" }},
		{"leaf with initial", func(c *Chart) { c.States[0].Initial = "Idle" }},
	}
	for _, tc := range cases {
		c := base()
		tc.mutate(c)
		if _, err := c.Compile(); err == nil {
			t.Errorf("%s: Compile should fail", tc.name)
		}
	}
}

func TestInitialChildMustBeDirectChild(t *testing.T) {
	c := &Chart{
		Name:       "x",
		TickPeriod: time.Millisecond,
		Initial:    "P",
		States: []*State{
			{Name: "P", Initial: "Q", Children: []*State{{Name: "C"}}},
			{Name: "Q"},
		},
	}
	if _, err := c.Compile(); err == nil {
		t.Fatal("initial child of another scope should fail")
	}
}

func TestInitialDefaultsToFirstState(t *testing.T) {
	c := &Chart{
		Name:       "d",
		TickPeriod: time.Millisecond,
		States:     []*State{{Name: "First"}, {Name: "Second"}},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cc.InitialLeaf() != "First" {
		t.Fatalf("initial %q", cc.InitialLeaf())
	}
}
