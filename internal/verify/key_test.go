package verify

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"rmtest/internal/randchart"
	"rmtest/internal/sim"
	"rmtest/internal/statechart"
)

// stringKey is the checker's former state key, kept as the oracle for
// the compact one: the active leaf's name, the saturated active-path
// counters, the relevant variables by name and the obligation, formatted
// as text.
func stringKey(m *statechart.Machine, obligation int64, cap int64, relevant map[string]bool) string {
	var b strings.Builder
	b.WriteString(m.ActiveState())
	b.WriteByte('|')
	for _, t := range m.ActiveTicks() {
		if t > cap {
			t = cap
		}
		fmt.Fprintf(&b, "%d,", t)
	}
	b.WriteByte('|')
	vars := m.Vars()
	names := make([]string, 0, len(vars))
	for n := range vars {
		if relevant[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d,", n, vars[n])
	}
	fmt.Fprintf(&b, "|%d", obligation)
	return b.String()
}

// TestCompactKeyMatchesStringKey checks on random charts that two
// reachable configurations get equal compact keys exactly when they get
// equal string keys, for obligations -1, 0 and 1 and for two relevant
// sets: one output's cone of influence, and every variable. It also
// checks InActivePath against ActivePath in every configuration.
func TestCompactKeyMatchesStringKey(t *testing.T) {
	var configs, keyed, distinct int
	for seed := uint64(1); seed <= 300; seed++ {
		r := sim.NewRand(seed)
		chart := randchart.Chart(r)
		cc, err := chart.Compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		limit := cc.MaxTemporalConst() + 1
		outIDs, err := cone(cc, "out0")
		if err != nil {
			t.Fatal(err)
		}
		all := map[string]bool{}
		var allIDs []int
		for id, d := range cc.Declarations() {
			all[d.Name] = true
			allIDs = append(allIDs, id)
		}
		sets := []struct {
			names map[string]bool
			ids   []int
		}{{relevantVars(cc, "out0"), outIDs}, {all, allIDs}}

		// Random reachable configurations: each step restores one seen
		// so far and applies random events and a random input.
		m := statechart.NewMachine(cc)
		snaps := []statechart.MachineState{m.Snapshot()}
		for i := 0; i < 150; i++ {
			m.Restore(snaps[r.Intn(len(snaps))])
			var evs []string
			for _, e := range chart.Events {
				if r.Bool(0.3) {
					evs = append(evs, e)
				}
			}
			m.SetInput("in0", int64(r.Intn(6)))
			if m.Step(evs...).Err != nil {
				continue
			}
			snaps = append(snaps, m.Snapshot())
		}

		states := cc.StateNames()
		var compactOf, stringOf [2]map[string]string
		for i := range sets {
			compactOf[i], stringOf[i] = map[string]string{}, map[string]string{}
		}
		for _, snap := range snaps {
			m.Restore(snap)
			for _, s := range states {
				if m.InActivePath(s) != slices.Contains(m.ActivePath(), s) {
					t.Fatalf("seed %d: InActivePath(%s) disagrees with %v", seed, s, m.ActivePath())
				}
			}
			for i, set := range sets {
				for ob := int64(-1); ob <= 1; ob++ {
					sk := stringKey(m, ob, limit, set.names)
					ck := string(key(nil, m, ob, limit, set.ids))
					if prev, ok := compactOf[i][sk]; ok && prev != ck {
						t.Fatalf("seed %d: string key %q has two compact keys %x and %x", seed, sk, prev, ck)
					}
					if prev, ok := stringOf[i][ck]; ok && prev != sk {
						t.Fatalf("seed %d: compact key %x has two string keys %q and %q", seed, ck, prev, sk)
					}
					compactOf[i][sk], stringOf[i][ck] = ck, sk
					keyed++
				}
			}
		}
		distinct += len(compactOf[0]) + len(compactOf[1])
		configs += len(snaps)
	}
	t.Logf("%d configurations keyed %d times; %d distinct keys", configs, keyed, distinct)
	if distinct == keyed {
		t.Error("no two configurations shared a key: the projection and saturation were never exercised")
	}
}
