package verify

import (
	"slices"
	"sort"
	"testing"

	"rmtest/internal/codegen"
	"rmtest/internal/interp"
	"rmtest/internal/randchart"
	"rmtest/internal/sim"
)

// TestCompactKeyMatchesStringKey drives the chart interpreter and the
// generated code in lockstep on random charts and random stimuli. It
// checks that two reachable configurations get equal compact keys from
// the executor exactly when they get equal string keys from the
// interpreter, for obligations -1, 0 and 1 and for two relevant sets: one
// output's cone of influence, and every variable. It also checks the
// executor's InActivePath against the interpreter's ActivePath in every
// configuration.
func TestCompactKeyMatchesStringKey(t *testing.T) {
	var configs, keyed, distinct int
	for seed := uint64(1); seed <= 300; seed++ {
		r := sim.NewRand(seed)
		chart := randchart.Chart(r)
		cc, err := chart.Compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		prog, err := codegen.Generate(cc)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		limit := cc.MaxTemporalConst() + 1
		outIDs, err := cone(cc, "out0")
		if err != nil {
			t.Fatal(err)
		}
		var all []string
		var allIDs []int
		for id, d := range cc.Declarations() {
			all = append(all, d.Name)
			allIDs = append(allIDs, id)
		}
		sort.Strings(all)
		sets := []struct {
			names []string
			ids   []int
		}{{relevantNames(cc, "out0"), outIDs}, {all, allIDs}}

		// Random reachable configurations: each step restores one seen
		// so far on both runtimes and applies the same random events and
		// input to both.
		m := interp.NewMachine(cc)
		e := codegen.NewExec(prog, codegen.ZeroCostModel(), nil, nil)
		type config struct {
			m interp.MachineState
			e []int64 // the executor's row
		}
		snaps := []config{{m.Snapshot(), e.AppendRow(nil)}}
		for i := 0; i < 150; i++ {
			from := snaps[r.Intn(len(snaps))]
			m.Restore(from.m)
			e.LoadRow(from.e)
			var evs []string
			for _, ev := range chart.Events {
				if r.Bool(0.3) {
					evs = append(evs, ev)
				}
			}
			in := int64(r.Intn(6))
			m.SetInput("in0", in)
			e.SetInput("in0", in)
			errM, errE := m.Step(evs...).Err, e.Step(e.EventMask(evs...)).Err
			if (errM == nil) != (errE == nil) {
				t.Fatalf("seed %d: step errors %v vs %v", seed, errM, errE)
			}
			if errM != nil {
				continue
			}
			snaps = append(snaps, config{m.Snapshot(), e.AppendRow(nil)})
		}

		states := cc.StateNames()
		var compactOf, stringOf [2]map[string]string
		for i := range sets {
			compactOf[i], stringOf[i] = map[string]string{}, map[string]string{}
		}
		for _, snap := range snaps {
			m.Restore(snap.m)
			e.LoadRow(snap.e)
			if m.ActiveState() != e.ActiveState() {
				t.Fatalf("seed %d: leaf %s vs %s", seed, m.ActiveState(), e.ActiveState())
			}
			for sid, s := range states {
				if e.InActivePath(sid) != slices.Contains(m.ActivePath(), s) {
					t.Fatalf("seed %d: InActivePath(%s) disagrees with %v", seed, s, m.ActivePath())
				}
			}
			for i, set := range sets {
				for ob := int64(-1); ob <= 1; ob++ {
					sk := stringKey(m, ob, limit, set.names)
					ck := string(key(nil, e, ob, limit, set.ids))
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
