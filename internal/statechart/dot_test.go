package statechart

import (
	"strings"
	"testing"
	"time"
)

func TestDOTRendersPump(t *testing.T) {
	cc := compilePump(t)
	dot := cc.DOT()
	for _, want := range []string{
		`digraph "pump"`,
		`"Idle" -> "BolusRequested"`,
		`label="i_BolusReq"`,
		`label="before(100, E_CLK) / o_MotorState := 1"`,
		`__init -> "Idle"`,
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	if cc.DOT() != dot {
		t.Fatal("DOT not deterministic")
	}
}

func TestDOTRendersHierarchyAsClusters(t *testing.T) {
	c := &Chart{
		Name:       "h",
		TickPeriod: time.Millisecond,
		Events:     []string{"e"},
		Initial:    "P",
		States: []*State{
			{Name: "P", Initial: "A", Children: []*State{
				{Name: "A", Transitions: []Transition{{To: "B", Trigger: "e"}}},
				{Name: "B"},
			}},
		},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	dot := cc.DOT()
	for _, want := range []string{`subgraph "cluster_P"`, `label="P"`, `"A" -> "B"`} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}
