package verify

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"rmtest/internal/interp"
	"rmtest/internal/randchart"
	"rmtest/internal/sim"
	"rmtest/internal/statechart"
)

// coneSets returns the two relevant sets the key tests key with, by name
// and by id: out0's cone of influence, and every variable.
func coneSets(t *testing.T, cc *statechart.Compiled) (names [2][]string, ids [2][]int) {
	t.Helper()
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
	return [2][]string{relevantNames(cc, "out0"), all}, [2][]int{outIDs, allIDs}
}

// TestCompactKeyMatchesStringKey drives the chart interpreter and the
// generated code in lockstep on random charts and random stimuli. It
// checks that two reachable configurations get equal keys from their
// executor rows (explorer.rowKey) exactly when they get equal string keys
// from the interpreter, for obligations -1, 0 and 1 and for two relevant
// sets: one output's cone of influence, and every variable. It also
// checks the executor's InActivePath against the interpreter's ActivePath
// in every configuration.
func TestCompactKeyMatchesStringKey(t *testing.T) {
	var configs, keyed, distinct int
	for seed := uint64(1); seed <= 300; seed++ {
		r := sim.NewRand(seed)
		chart := randchart.Chart(r)
		cc, err := chart.Compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		stim, err := newStimuli(cc, nil)
		if err != nil {
			t.Fatal(err)
		}
		limit := cc.MaxTemporalConst() + 1
		names, ids := coneSets(t, cc)
		var xs [2]*explorer
		for i := range xs {
			if xs[i], err = newExplorer(cc, stim, ids[i], limit); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}

		// Random reachable configurations: each step restores one seen
		// so far on both runtimes and applies the same random events and
		// input to both.
		m := interp.NewMachine(cc)
		e := xs[0].exec
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
		for i := range xs {
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
			for i, x := range xs {
				for ob := int64(-1); ob <= 1; ob++ {
					sk := stringKey(m, ob, limit, names[i])
					ck := fmt.Sprint(x.rowKey(snap.e, ob))
					if prev, ok := compactOf[i][sk]; ok && prev != ck {
						t.Fatalf("seed %d: string key %q has two compact keys %s and %s", seed, sk, prev, ck)
					}
					if prev, ok := stringOf[i][ck]; ok && prev != sk {
						t.Fatalf("seed %d: compact key %s has two string keys %q and %q", seed, ck, prev, sk)
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

// TestSuccessorKeyMatchesStep checks the explorer's shortcut against real
// steps on 300 random charts. From every row of a deep random walk it
// steps every stimulus, and requires that the successor's key built from
// the source row and the step's successor block (explorer.successorKey)
// equal the key of the stepped executor's own row (explorer.rowKey), for
// obligations -1, 0 and 1 and for one output's cone and every variable,
// and that the row rebuilt from the source row and the block
// (explorer.rebuild) equal the stepped row. It fails unless some
// successors have a tick count over the cap, and some enter a state whose
// entry tick in the source row would give a count other than 1, so that
// both the saturation and the entered states are exercised.
func TestSuccessorKeyMatchesStep(t *testing.T) {
	var compared, saturated, reentered int
	for seed := uint64(1); seed <= 300; seed++ {
		r := sim.NewRand(seed)
		cc, err := randchart.Chart(r).Compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		stim, err := newStimuli(cc, map[string][]int64{"in0": {0, 1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		limit := cc.MaxTemporalConst() + 1
		_, ids := coneSets(t, cc)
		var xs [2]*explorer
		for i := range xs {
			if xs[i], err = newExplorer(cc, stim, ids[i], limit); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		x, e := xs[0], xs[0].exec

		// A walk that mostly goes on from one of its last rows, so tick
		// counts grow past the cap.
		rows := [][]int64{e.AppendRow(nil)}
		for range 100 {
			e.LoadRow(rows[len(rows)-1-r.Intn(min(len(rows), 3))])
			if x.step(r.Intn(len(x.masks)), r.Intn(stim.combos)) == nil {
				rows = append(rows, e.AppendRow(nil))
			}
		}

		stepped := make([]int64, 0, e.RowLen())
		rebuilt := make([]int64, e.RowLen())
		for _, row := range rows {
			for k := range x.masks {
				for c := range stim.combos {
					e.LoadRow(row)
					if x.step(k, c) != nil {
						continue
					}
					stepped = e.AppendRow(stepped[:0])
					x.succ = x.succ[:0]
					x.keep(row[1])
					blk := x.block(0)
					x.rebuild(rebuilt, row, blk)
					if !slices.Equal(rebuilt, stepped) {
						t.Fatalf("seed %d: from %v on subset %d, combination %d: rebuilt %v, stepped %v", seed, row, k, c, rebuilt, stepped)
					}
					for _, xc := range xs {
						for ob := int64(-1); ob <= 1; ob++ {
							want := slices.Clone(xc.rowKey(stepped, ob))
							if got := xc.successorKey(row, blk, ob); !slices.Equal(got, want) {
								t.Fatalf("seed %d: from %v on subset %d, combination %d, obligation %d: successor key %v, stepped row's key %v",
									seed, row, k, c, ob, got, want)
							}
							compared++
						}
					}
					for sid := int(stepped[0]); sid >= 0; sid = x.states[sid].Parent {
						if stepped[1]-stepped[x.entryOff+sid] > limit {
							saturated++
							break
						}
					}
					for sid := int(stepped[0]); sid >= 0; sid = x.states[sid].Parent {
						if blk[x.entryOff+sid] != 0 && min(row[1]+1-row[x.entryOff+sid], limit) != 1 {
							reentered++
							break
						}
					}
				}
			}
		}
	}
	t.Logf("%d key pairs compared; %d successors with a count over the cap, %d entering a state whose old entry tick would not give 1", compared, saturated, reentered)
	if saturated == 0 || reentered == 0 {
		t.Errorf("saturation exercised %d times, re-entry %d times: want both", saturated, reentered)
	}
}

// TestKeyLayout pins rowKey's documented layout on a mode chart whose
// composite Run holds Slow and Fast: the leaf's id, one tick count per
// active-path state saturated at the cap, the cone's variables, the
// obligation, and zeros up to the set's width.
func TestKeyLayout(t *testing.T) {
	cc, err := (&statechart.Chart{
		Name:       "mode",
		TickPeriod: time.Millisecond,
		Events:     []string{"pause", "fast"},
		Vars:       []statechart.VarDecl{{Name: "out", Type: statechart.Int, Kind: statechart.Output}},
		Initial:    "Run",
		States: []*statechart.State{
			{
				Name:        "Run",
				Initial:     "Slow",
				Transitions: []statechart.Transition{{To: "Paused", Trigger: "pause"}},
				Children: []*statechart.State{
					{Name: "Slow", Entry: "out := 1", Transitions: []statechart.Transition{{To: "Fast", Trigger: "fast"}}},
					{Name: "Fast", Entry: "out := 2"},
				},
			},
			{Name: "Paused"},
		},
	}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	stim, err := newStimuli(cc, nil)
	if err != nil {
		t.Fatal(err)
	}
	x5, err := newExplorer(cc, stim, []int{0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := newExplorer(cc, stim, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := x5.exec
	e.Step(0)
	e.Step(e.EventMask("fast"))
	e.Step(0) // Fast has been active for 2 ticks, its parent Run for 3
	row := e.AppendRow(nil)
	u := func(v int64) uint64 { return uint64(v) }
	// State ids in document order: Run 0, Slow 1, Fast 2, Paused 3.
	for _, c := range []struct {
		x    *explorer
		row  []int64
		ob   int64
		want []uint64
	}{
		{x5, row, -1, []uint64{2, 2, 3, 2, u(-1)}},
		{x2, row, 7, []uint64{2, 2, 2, 2, 7}},
	} {
		if got := c.x.rowKey(c.row, c.ob); !slices.Equal(got, c.want) {
			t.Errorf("in Fast, cap %d: got %v, want %v", c.x.limit, got, c.want)
		}
	}
	e.Step(e.EventMask("pause"))
	if got, want := x5.rowKey(e.AppendRow(nil), 0), []uint64{3, 1, 2, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("in Paused: got %v, want %v", got, want)
	}
}

// TestWordSetMatchesMap adds 100,000 distinct keys, with repeats among
// them, to a word set with small chunks and table, and to a Go map. Keys
// are shaped like the checker's: a leaf whose path is one to three words
// long, counts and a value drawn from ranges that widen as the set
// fills, an obligation, and zeros after a short path. Many differ from a
// key already added in a single word, the leaf among them: a zero-padded
// short-path key then meets a deeper leaf's key with the same words
// after the leaf. Every add must agree with the map on whether the key
// is new and on its number, numbers must follow the order of insertion,
// each number must give back its key, and after every doubling of the
// table every key added so far must still be found under its number.
func TestWordSetMatchesMap(t *testing.T) {
	const width, leaves = 6, 6
	s := newWordSet(width, 1<<4)
	ref := map[[width]uint64]int{}
	var order [][width]uint64
	r := sim.NewRand(1)
	draw := func(spread int) (k [width]uint64) {
		leaf := r.Intn(leaves)
		k[0] = uint64(leaf)
		n := 1
		for range 1 + leaf%3 {
			k[n] = uint64(1 + r.Intn(4+spread))
			n++
		}
		k[n] = uint64(r.Intn(3 + spread))
		k[n+1] = uint64(int64(r.Intn(4)) - 1)
		return k
	}
	doublings, deepened := 0, 0
	for len(ref) < 100_000 {
		var k [width]uint64
		deeper := false // k has a padded key's words under a deeper leaf
		switch {
		case len(order) > 0 && r.Bool(0.2):
			k = order[r.Intn(len(order))] // a repeat
		case len(order) > 0 && r.Bool(0.5):
			k = order[r.Intn(len(order))]
			if j := r.Intn(width); j == 0 {
				old := k[0]
				k[0] = uint64(r.Intn(leaves))
				deeper = k[0]%3 > old%3
			} else {
				k[j] += uint64(1 + r.Intn(3))
			}
		default:
			k = draw(len(order) / 64)
		}
		slots := len(s.slots)
		n, fresh := s.add(k[:])
		if want, seen := ref[k]; seen {
			if fresh || n != want {
				t.Fatalf("key %v: got (%d, %v), want (%d, false)", k, n, fresh, want)
			}
			continue
		}
		if !fresh || n != len(order) {
			t.Fatalf("new key %v: got (%d, %v), want (%d, true)", k, n, fresh, len(order))
		}
		ref[k] = n
		order = append(order, k)
		if deeper {
			deepened++
		}
		if !slices.Equal(s.keys.at(n), k[:]) {
			t.Fatalf("key %d reads back as %v, want %v", n, s.keys.at(n), k)
		}
		if len(s.slots) != slots {
			doublings++
			for i, o := range order {
				if m, again := s.add(o[:]); again || m != i {
					t.Fatalf("after growing to %d slots, key %d %v: got (%d, %v)", len(s.slots), i, o, m, again)
				}
			}
		}
	}
	t.Logf("%d keys in %d slots after %d doublings; %d padded keys' words under a deeper leaf", len(order), len(s.slots), doublings, deepened)
	if doublings < 10 || deepened == 0 {
		t.Errorf("%d doublings and %d padded keys' words under a deeper leaf", doublings, deepened)
	}
}
