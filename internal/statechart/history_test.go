package statechart

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

// historyChart: a mode composite with a shallow history junction. Pausing
// and resuming must return to the sub-mode that was active, not the
// initial one.
func historyChart(history bool) *Chart {
	return &Chart{
		Name:       "hist",
		TickPeriod: time.Millisecond,
		Events:     []string{"pause", "resume", "fast"},
		Vars:       []VarDecl{{Name: "out", Type: Int, Kind: Output}},
		Initial:    "Run",
		States: []*State{
			{
				Name:    "Run",
				Initial: "Slow",
				History: history,
				Transitions: []Transition{
					{To: "Paused", Trigger: "pause"},
				},
				Children: []*State{
					{Name: "Slow", Entry: "out := 1", Transitions: []Transition{
						{To: "Fast", Trigger: "fast"},
					}},
					{Name: "Fast", Entry: "out := 2"},
				},
			},
			{
				Name: "Paused",
				Transitions: []Transition{
					{To: "Run", Trigger: "resume"},
				},
			},
		},
	}
}

func TestHistoryResumesLastChild(t *testing.T) {
	cc, err := historyChart(true).Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	m.Step("fast")
	if m.ActiveState() != "Fast" {
		t.Fatalf("active %q", m.ActiveState())
	}
	m.Step("pause")
	if m.ActiveState() != "Paused" {
		t.Fatalf("active %q", m.ActiveState())
	}
	m.Step("resume")
	if m.ActiveState() != "Fast" {
		t.Fatalf("history should resume Fast, got %q", m.ActiveState())
	}
	if m.Get("out") != 2 {
		t.Fatalf("out=%d; Fast entry should rerun", m.Get("out"))
	}
}

func TestWithoutHistoryResumesInitial(t *testing.T) {
	cc, err := historyChart(false).Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	m.Step("fast")
	m.Step("pause")
	m.Step("resume")
	if m.ActiveState() != "Slow" {
		t.Fatalf("without history resume should enter Slow, got %q", m.ActiveState())
	}
}

func TestHistoryFirstEntryUsesInitial(t *testing.T) {
	cc, err := historyChart(true).Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	if m.ActiveState() != "Slow" {
		t.Fatalf("first entry should use initial child, got %q", m.ActiveState())
	}
}

func TestHistorySurvivesMultipleCycles(t *testing.T) {
	cc, err := historyChart(true).Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	for i := 0; i < 3; i++ {
		m.Step("pause")
		m.Step("resume")
	}
	if m.ActiveState() != "Slow" {
		t.Fatalf("history of Slow should persist, got %q", m.ActiveState())
	}
	m.Step("fast")
	for i := 0; i < 3; i++ {
		m.Step("pause")
		m.Step("resume")
		if m.ActiveState() != "Fast" {
			t.Fatalf("cycle %d: history lost, got %q", i, m.ActiveState())
		}
	}
}

func TestHistoryResetClears(t *testing.T) {
	cc, err := historyChart(true).Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	m.Step("fast")
	m.Step("pause")
	m.Reset()
	m.Step("pause")
	m.Step("resume")
	if m.ActiveState() != "Slow" {
		t.Fatalf("reset should clear history, got %q", m.ActiveState())
	}
}

func TestHistorySnapshotRestore(t *testing.T) {
	cc, err := historyChart(true).Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	m.Step("fast")
	m.Step("pause")
	snap := m.Snapshot() // history remembers Fast
	m.Step("resume")
	if m.ActiveState() != "Fast" {
		t.Fatal("precondition failed")
	}
	// Diverge: reset history through a fresh cycle from Slow.
	m.Restore(snap)
	if got := m.HistoryLeaves(); len(got) != 1 || got[0] != "Run:Fast" {
		t.Fatalf("history leaves: %v", got)
	}
	m.Step("resume")
	if m.ActiveState() != "Fast" {
		t.Fatalf("restored history lost, got %q", m.ActiveState())
	}
}

func TestHistoryOnLeafRejected(t *testing.T) {
	c := &Chart{
		Name:       "bad",
		TickPeriod: time.Millisecond,
		States:     []*State{{Name: "A", History: true}},
	}
	if _, err := c.Compile(); err == nil {
		t.Fatal("history on a leaf should be rejected")
	}
}

// TestAppendConfigLayout pins AppendConfig's documented layout: leaf id,
// one saturated tick count per active-path state, the requested
// variables, and one slot per history composite.
func TestAppendConfigLayout(t *testing.T) {
	cc, err := historyChart(true).Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(cc)
	m.Step()
	m.Step("fast")
	m.Step() // Fast has been active for 2 ticks, its parent Run for 3
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	// State ids in document order: Run 0, Slow 1, Fast 2, Paused 3.
	want := slices.Concat(u32(2), u64(2), u64(3), u64(2), u32(0))
	if got := m.AppendConfig(nil, 5, []int{0}); !bytes.Equal(got, want) {
		t.Fatalf("in Fast: got %x, want %x", got, want)
	}
	want = slices.Concat(u32(2), u64(2), u64(2), u64(2), u32(0))
	if got := m.AppendConfig(nil, 2, []int{0}); !bytes.Equal(got, want) {
		t.Fatalf("in Fast, saturated at 2: got %x, want %x", got, want)
	}
	m.Step("pause") // history remembers Fast
	want = slices.Concat(u32(3), u64(1), u32(2+1))
	if got := m.AppendConfig(nil, 5, nil); !bytes.Equal(got, want) {
		t.Fatalf("in Paused: got %x, want %x", got, want)
	}
}
