package fourvar

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rmtest/internal/sim"
)

const ms = time.Millisecond

func TestTraceRecordAndQuery(t *testing.T) {
	tr := NewTrace()
	tr.Record(Monitored, "btn", 1, 10*ms)
	tr.Record(Input, "i_Btn", 1, 14*ms)
	tr.Record(Output, "o_Motor", 1, 16*ms)
	tr.Record(Controlled, "motor", 1, 19*ms)
	if tr.Len() != 4 {
		t.Fatalf("len=%d", tr.Len())
	}
	if got := slices.Collect(tr.OfSeq(Monitored, "btn")); len(got) != 1 || got[0].At != 10*ms {
		t.Fatalf("OfSeq=%v", got)
	}
	e, ok := tr.FirstAt(Output, "o_Motor", 15*ms, nil)
	if !ok || e.At != 16*ms {
		t.Fatalf("FirstAt=%v %v", e, ok)
	}
	if _, ok := tr.FirstAt(Output, "o_Motor", 17*ms, nil); ok {
		t.Fatal("should not find event before window")
	}
}

func TestTraceFirstAtPredicate(t *testing.T) {
	tr := NewTrace()
	tr.Record(Output, "o", 0, ms)
	tr.Record(Output, "o", 1, 2*ms)
	e, ok := tr.FirstAt(Output, "o", 0, func(v int64) bool { return v == 1 })
	if !ok || e.At != 2*ms {
		t.Fatalf("e=%v ok=%v", e, ok)
	}
}

func TestTraceOutOfOrderPanics(t *testing.T) {
	tr := NewTrace()
	tr.Record(Monitored, "x", 1, 10*ms)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Record(Monitored, "x", 0, 5*ms)
}

func TestTraceReset(t *testing.T) {
	tr := NewTrace()
	tr.Record(Monitored, "x", 1, 10*ms)
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset failed")
	}
	tr.Record(Monitored, "x", 1, ms) // earlier time is fine after reset
}

func TestTraceString(t *testing.T) {
	tr := NewTrace()
	tr.Record(Monitored, "btn", 1, 10*ms)
	if !strings.Contains(tr.String(), "m-btn=1") {
		t.Fatalf("string: %q", tr.String())
	}
}

func TestTransitionTrace(t *testing.T) {
	tt := NewTransitionTrace()
	tt.Start(0, "A->B", 5*ms)
	tt.Finish(0, "A->B", 7*ms, []string{"o_x"})
	tt.Start(1, "B->C", 7*ms)
	tt.Finish(1, "B->C", 11*ms, nil)
	recs := tt.Records()
	if len(recs) != 2 {
		t.Fatalf("recs=%v", recs)
	}
	if recs[0].Duration() != 2*ms || recs[1].Duration() != 4*ms {
		t.Fatalf("durations %v %v", recs[0].Duration(), recs[1].Duration())
	}
	if got := tt.Between(6*ms, 8*ms); len(got) != 1 || got[0].Label != "B->C" {
		t.Fatalf("between=%v", got)
	}
	tt.Reset()
	if len(tt.Records()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestMappingValidate(t *testing.T) {
	good := Mapping{
		MtoI: map[string]string{"btn": "i_Btn"},
		OtoC: map[string]string{"o_Motor": "motor"},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Mapping{}).Validate(); err == nil {
		t.Fatal("empty mapping should fail")
	}
	dup := Mapping{
		MtoI: map[string]string{"a": "i", "b": "i"},
		OtoC: map[string]string{"o": "c"},
	}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate i mapping should fail")
	}
	dup2 := Mapping{
		MtoI: map[string]string{"a": "i"},
		OtoC: map[string]string{"o1": "c", "o2": "c"},
	}
	if err := dup2.Validate(); err == nil {
		t.Fatal("duplicate c mapping should fail")
	}
}

func TestMappingNamesSorted(t *testing.T) {
	mp := Mapping{
		MtoI: map[string]string{"z": "iz", "a": "ia"},
		OtoC: map[string]string{"o2": "c2", "o1": "c1"},
	}
	if got := mp.MNames(); got[0] != "a" || got[1] != "z" {
		t.Fatalf("MNames=%v", got)
	}
	if got := mp.ONames(); got[0] != "o1" {
		t.Fatalf("ONames=%v", got)
	}
}

func chainTrace() (*Trace, *TransitionTrace) {
	tr := NewTrace()
	tr.Record(Monitored, "btn", 1, 10*ms)
	tr.Record(Input, "i_Btn", 1, 22*ms)
	tr.Record(Output, "o_Motor", 1, 25*ms)
	tr.Record(Controlled, "motor", 1, 31*ms)
	tt := NewTransitionTrace()
	tt.Start(0, "Idle->Req", 22*ms)
	tt.Finish(0, "Idle->Req", 23*ms, nil)
	tt.Start(1, "Req->Inf", 23*ms)
	tt.Finish(1, "Req->Inf", 25*ms, []string{"o_Motor"})
	return tr, tt
}

func chainSpec() MatchSpec {
	return MatchSpec{
		MName: "btn", MPred: func(v int64) bool { return v == 1 },
		IName: "i_Btn",
		OName: "o_Motor", OPred: func(v int64) bool { return v == 1 },
		CName: "motor",
	}
}

func TestMatchFullChain(t *testing.T) {
	tr, tt := chainTrace()
	s, ok := Match(tr, tt, chainSpec(), 0)
	if !ok {
		t.Fatal("no match")
	}
	if s.InputDelay() != 12*ms || s.CodeDelay() != 3*ms || s.OutputDelay() != 6*ms || s.Total() != 21*ms {
		t.Fatalf("segments: %v", s)
	}
	if len(s.Transitions) != 2 || s.TransitionTotal() != 3*ms {
		t.Fatalf("transitions: %v", s.Transitions)
	}
	// The segment identity: total = input + code + output.
	if s.InputDelay()+s.CodeDelay()+s.OutputDelay() != s.Total() {
		t.Fatal("segment identity violated")
	}
}

func TestMatchMissingLinks(t *testing.T) {
	spec := chainSpec()
	// No c-event.
	tr := NewTrace()
	tr.Record(Monitored, "btn", 1, 10*ms)
	tr.Record(Input, "i_Btn", 1, 22*ms)
	tr.Record(Output, "o_Motor", 1, 25*ms)
	if _, ok := Match(tr, nil, spec, 0); ok {
		t.Fatal("match should fail without c-event")
	}
	// No m-event at all.
	if _, ok := Match(NewTrace(), nil, spec, 0); ok {
		t.Fatal("match should fail without m-event")
	}
}

func TestMatchSelectsStimulusWindow(t *testing.T) {
	tr := NewTrace()
	tt := NewTransitionTrace()
	// Two consecutive bolus requests.
	for i, base := range []sim.Time{0, 200 * ms} {
		tr.Record(Monitored, "btn", 1, base+10*ms)
		tr.Record(Input, "i_Btn", 1, base+20*ms)
		tr.Record(Output, "o_Motor", 1, base+24*ms)
		tr.Record(Controlled, "motor", 1, base+30*ms)
		_ = i
	}
	s, ok := Match(tr, tt, chainSpec(), 150*ms)
	if !ok || s.M.At != 210*ms || s.C.At != 230*ms {
		t.Fatalf("s=%v ok=%v", s, ok)
	}
}

func TestSegmentsString(t *testing.T) {
	tr, tt := chainTrace()
	s, _ := Match(tr, tt, chainSpec(), 0)
	str := s.String()
	for _, want := range []string{"input=12ms", "code=3ms", "output=6ms", "total=21ms", "Req->Inf"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() missing %q: %s", want, str)
		}
	}
}

// Property: for any monotone chain of timestamps, Match recovers exactly
// the segments implied by the recorded instants, and the identity
// total == input+code+output holds.
func TestMatchPropertySegmentIdentity(t *testing.T) {
	f := func(d1, d2, d3 uint16, off uint16) bool {
		m := sim.Time(off) * ms
		i := m + sim.Time(d1)*ms
		o := i + sim.Time(d2)*ms
		c := o + sim.Time(d3)*ms
		tr := NewTrace()
		tr.Record(Monitored, "btn", 1, m)
		tr.Record(Input, "i_Btn", 1, i)
		tr.Record(Output, "o_Motor", 1, o)
		tr.Record(Controlled, "motor", 1, c)
		s, ok := Match(tr, nil, chainSpec(), 0)
		if !ok {
			return false
		}
		return s.InputDelay() == sim.Time(d1)*ms &&
			s.CodeDelay() == sim.Time(d2)*ms &&
			s.OutputDelay() == sim.Time(d3)*ms &&
			s.Total() == s.InputDelay()+s.CodeDelay()+s.OutputDelay()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Regression (issue 2, satellite 1): Match must bound the whole chain by
// the requirement deadline, exactly as the R-verdict does. Without the
// bound, a near-boundary sample's c-search runs past the timeout and
// returns a later response than the one the verdict judged.
func TestMatchDeadlineBoundsChain(t *testing.T) {
	tr := NewTrace()
	tr.Record(Monitored, "btn", 1, 10*ms)
	tr.Record(Input, "i_Btn", 1, 12*ms)
	tr.Record(Output, "o_Motor", 1, 14*ms)
	tr.Record(Controlled, "motor", 1, 200*ms) // actuation starved: 190 ms after m
	spec := chainSpec()

	// No deadline: legacy behaviour, the late c still matches.
	if _, ok := Match(tr, nil, spec, 0); !ok {
		t.Fatal("without a deadline the chain should match")
	}
	// A 100 ms deadline (the R-verdict's timeout) rejects the chain: the
	// c-event belongs to no conformant response of this stimulus.
	spec.Deadline = 100 * ms
	if s, ok := Match(tr, nil, spec, 0); ok {
		t.Fatalf("chain beyond the deadline must not match: %v", s)
	}
	// A deadline covering the chain still matches it.
	spec.Deadline = 250 * ms
	if s, ok := Match(tr, nil, spec, 0); !ok || s.C.At != 200*ms {
		t.Fatalf("chain within the deadline should match: %v %v", s, ok)
	}
}

// Regression (issue 2, satellite 1): when the stimulus' own response chain
// exceeds the deadline but a later stimulus produced a fast chain, Match
// must report no chain rather than silently explaining the later response.
func TestMatchDeadlineRejectsLaterResponse(t *testing.T) {
	tr := NewTrace()
	// Stimulus 1: response c arrives 400 ms after m (beyond the 100 ms
	// deadline — the R-verdict said MAX).
	tr.Record(Monitored, "btn", 1, 10*ms)
	tr.Record(Input, "i_Btn", 1, 15*ms)
	tr.Record(Output, "o_Motor", 1, 20*ms)
	// Stimulus 2 and its fast chain.
	tr.Record(Monitored, "btn", 1, 300*ms)
	tr.Record(Input, "i_Btn", 1, 305*ms)
	tr.Record(Output, "o_Motor", 1, 308*ms)
	tr.Record(Controlled, "motor", 1, 312*ms) // stimulus 2's response
	spec := chainSpec()
	spec.Deadline = 100 * ms
	if s, ok := Match(tr, nil, spec, 0); ok {
		t.Fatalf("stimulus 1 must not be explained by stimulus 2's response: %v", s)
	}
	// Stimulus 2's own window still matches its own chain.
	if s, ok := Match(tr, nil, spec, 250*ms); !ok || s.C.At != 312*ms || s.Total() != 12*ms {
		t.Fatalf("stimulus 2 chain: %v %v", s, ok)
	}
}

// Regression (issue 2, satellite 2): the Controlled event has its own
// predicate. When the output-variable encoding (here 0/1) differs from the
// controlled-signal encoding (here 0/5, an output device driving a scaled
// level), reusing OPred for the c-search silently mis-matches.
func TestMatchDistinctOCEncodings(t *testing.T) {
	tr := NewTrace()
	tr.Record(Monitored, "btn", 1, 10*ms)
	tr.Record(Input, "i_Btn", 1, 12*ms)
	tr.Record(Output, "o_Motor", 1, 14*ms)    // chart encoding: 1 = on
	tr.Record(Controlled, "motor", 5, 18*ms)  // device encoding: 5 = full speed
	tr.Record(Controlled, "motor", 0, 900*ms) // later off-event
	spec := MatchSpec{
		MName: "btn", MPred: func(v int64) bool { return v == 1 },
		IName: "i_Btn",
		OName: "o_Motor", OPred: func(v int64) bool { return v == 1 },
		CName: "motor", CPred: func(v int64) bool { return v == 5 },
	}
	s, ok := Match(tr, nil, spec, 0)
	if !ok {
		t.Fatal("distinct o/c encodings must still match via CPred")
	}
	if s.O.Value != 1 || s.C.Value != 5 || s.C.At != 18*ms || s.OutputDelay() != 4*ms {
		t.Fatalf("wrong chain: %v", s)
	}
	// A nil CPred accepts any c-change (first one after o).
	spec.CPred = nil
	if s, ok := Match(tr, nil, spec, 0); !ok || s.C.At != 18*ms {
		t.Fatalf("nil CPred: %v %v", s, ok)
	}
}

// Property: FirstAt's binary search and OfSeq agree with a
// straightforward linear scan over randomized traces.
func TestIndexedQueriesMatchLinearScan(t *testing.T) {
	f := func(seed uint16) bool {
		r := sim.NewRand(uint64(seed))
		tr := NewTrace()
		var all []Event
		names := []string{"a", "b"}
		var at sim.Time
		for k := 0; k < 200; k++ {
			at += sim.Time(r.Intn(3)) * ms
			kind := Kind(r.Intn(4))
			name := names[r.Intn(len(names))]
			v := int64(r.Intn(3))
			tr.Record(kind, name, v, at)
			all = append(all, Event{Kind: kind, Name: name, Value: v, At: at})
		}
		linearFirst := func(kind Kind, name string, t sim.Time, pred func(int64) bool) (Event, bool) {
			for _, e := range all {
				if e.At < t || e.Kind != kind || e.Name != name {
					continue
				}
				if pred == nil || pred(e.Value) {
					return e, true
				}
			}
			return Event{}, false
		}
		pred := func(v int64) bool { return v == 1 }
		for q := 0; q < 50; q++ {
			qt := sim.Time(r.Intn(int(at/ms)+2)) * ms
			kind := Kind(r.Intn(4))
			name := names[r.Intn(len(names))]
			we, wok := linearFirst(kind, name, qt, pred)
			ge, gok := tr.FirstAt(kind, name, qt, pred)
			if wok != gok || we != ge {
				return false
			}
			we, wok = linearFirst(kind, name, qt, nil)
			ge, gok = tr.FirstAt(kind, name, qt, nil)
			if wok != gok || we != ge {
				return false
			}
		}
		for _, kind := range []Kind{Monitored, Input, Output, Controlled} {
			for _, name := range names {
				var want []Event
				for _, e := range all {
					if e.Kind == kind && e.Name == name {
						want = append(want, e)
					}
				}
				if got := slices.Collect(tr.OfSeq(kind, name)); !slices.Equal(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Monitored.String() != "m" || Input.String() != "i" || Output.String() != "o" || Controlled.String() != "c" {
		t.Fatal("kind strings wrong")
	}
}

func TestTransitionTraceFinishWithoutStart(t *testing.T) {
	tt := NewTransitionTrace()
	tt.Finish(3, "X->Y", 5*ms, nil)
	recs := tt.Records()
	if len(recs) != 1 || recs[0].Duration() != 0 {
		t.Fatalf("recs=%v", recs)
	}
}

func TestEventsZeroCopyView(t *testing.T) {
	tr := NewTrace()
	tr.Record(Monitored, "x", 1, ms)
	tr.Record(Monitored, "x", 2, 2*ms)
	view := tr.Events()
	if len(view) != 2 || view[0].Value != 1 || view[1].Value != 2 {
		t.Fatalf("bad view: %v", view)
	}
	// The view aliases the trace's backing storage: no allocation.
	if avg := testing.AllocsPerRun(100, func() { _ = tr.Events() }); avg != 0 {
		t.Fatalf("Events allocates %v per call, want 0", avg)
	}
}

func TestAllIterator(t *testing.T) {
	tr := NewTrace()
	for i := int64(0); i < 10; i++ {
		tr.Record(Input, "n", i, sim.Time(i+1)*ms)
	}
	want := tr.Events()
	i := 0
	for e := range tr.All() {
		if e != want[i] {
			t.Fatalf("All()[%d] = %v, want %v", i, e, want[i])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("All yielded %d events, want %d", i, len(want))
	}
	// Early break stops cleanly.
	n := 0
	for range tr.All() {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("early break yielded %d", n)
	}
}

func TestOfSeqAndCountOf(t *testing.T) {
	tr := NewTrace()
	tr.Record(Monitored, "a", 1, ms)
	tr.Record(Input, "b", 2, 2*ms)
	tr.Record(Monitored, "a", 3, 3*ms)
	want := []Event{tr.Events()[0], tr.Events()[2]}
	if got := slices.Collect(tr.OfSeq(Monitored, "a")); !slices.Equal(got, want) {
		t.Fatalf("OfSeq yielded %v, want %v", got, want)
	}
	if tr.CountOf(Monitored, "a") != 2 || tr.CountOf(Input, "b") != 1 {
		t.Fatal("CountOf miscounted")
	}
	if tr.CountOf(Output, "missing") != 0 {
		t.Fatal("CountOf on absent stream must be 0")
	}
	for range tr.OfSeq(Output, "missing") {
		t.Fatal("OfSeq on absent stream must be empty")
	}
}

func TestResetRetainsCapacityAllocFree(t *testing.T) {
	tr := NewTrace()
	fill := func() {
		for i := int64(0); i < 64; i++ {
			tr.Record(Monitored, "m", i, sim.Time(i+1)*ms)
			tr.Record(Controlled, "c", i, sim.Time(i+1)*ms)
		}
	}
	fill()
	tr.Reset()
	if tr.Len() != 0 || tr.CountOf(Monitored, "m") != 0 {
		t.Fatal("Reset left events behind")
	}
	// Warm: capacity established. Steady-state reset+refill allocates
	// nothing beyond amortized zero.
	fill()
	if avg := testing.AllocsPerRun(100, func() {
		tr.Reset()
		fill()
	}); avg != 0 {
		t.Fatalf("reset+refill allocates %v per cycle, want 0", avg)
	}
}

func TestClearTaps(t *testing.T) {
	tr := NewTrace()
	n := 0
	tr.Tap(func(Event) { n++ })
	tr.Record(Monitored, "x", 1, ms)
	if n != 1 {
		t.Fatal("tap not invoked")
	}
	tr.Reset()
	tr.Record(Monitored, "x", 2, ms)
	if n != 2 {
		t.Fatal("Reset must retain taps")
	}
	tr.ClearTaps()
	tr.Record(Monitored, "x", 3, 2*ms)
	if n != 2 {
		t.Fatal("ClearTaps must drop taps")
	}
}

// naiveTrace is a reference implementation of the Trace queries by linear
// scan, used to cross-check FirstAt's binary search.
type naiveTrace struct {
	events []Event
}

func (n *naiveTrace) record(kind Kind, name string, value int64, at sim.Time) {
	n.events = append(n.events, Event{Kind: kind, Name: name, Value: value, At: at})
}

func (n *naiveTrace) firstAt(kind Kind, name string, t sim.Time, pred func(int64) bool) (Event, bool) {
	for _, e := range n.events {
		if e.Kind == kind && e.Name == name && e.At >= t && (pred == nil || pred(e.Value)) {
			return e, true
		}
	}
	return Event{}, false
}

func (n *naiveTrace) of(kind Kind, name string) []Event {
	var out []Event
	for _, e := range n.events {
		if e.Kind == kind && e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// TestTraceInterleavedAppendQuery: interleaving Record with FirstAt and
// OfSeq must return exactly what a linear scan returns, so a query never
// misses an event recorded just before it.
func TestTraceInterleavedAppendQuery(t *testing.T) {
	tr := NewTrace()
	ref := &naiveTrace{}
	rng := sim.NewRand(99)
	kinds := []Kind{Monitored, Input, Output, Controlled}
	names := []string{"a", "b", "c"}
	var now sim.Time
	for step := 0; step < 2000; step++ {
		now += sim.Time(rng.Intn(3)) * time.Millisecond
		kind := kinds[rng.Intn(len(kinds))]
		name := names[rng.Intn(len(names))]
		v := int64(rng.Intn(4))
		tr.Record(kind, name, v, now)
		ref.record(kind, name, v, now)
		// Query immediately after every append, mixing stream hits and
		// misses and time cursors.
		qk := kinds[rng.Intn(len(kinds))]
		qn := names[rng.Intn(len(names))]
		qt := sim.Time(rng.Intn(int(now/time.Millisecond)+2)) * time.Millisecond
		var pred func(int64) bool
		if rng.Bool(0.5) {
			want := int64(rng.Intn(4))
			pred = func(x int64) bool { return x == want }
		}
		ge, gok := tr.FirstAt(qk, qn, qt, pred)
		we, wok := ref.firstAt(qk, qn, qt, pred)
		if gok != wok || ge != we {
			t.Fatalf("step %d: FirstAt(%v,%q,%v) = (%v,%v), want (%v,%v)",
				step, qk, qn, qt, ge, gok, we, wok)
		}
		if !slices.Equal(slices.Collect(tr.OfSeq(qk, qn)), ref.of(qk, qn)) {
			t.Fatalf("step %d: OfSeq(%v,%q) diverges", step, qk, qn)
		}
	}
}

func TestTraceTapStreamsInRecordOrder(t *testing.T) {
	tr := NewTrace()
	var seen []Event
	tr.Tap(func(e Event) { seen = append(seen, e) })
	tr.Record(Monitored, "m", 1, 5)
	tr.Record(Controlled, "c", 2, 7)
	if !reflect.DeepEqual(seen, tr.Events()) {
		t.Fatalf("tap saw %v, trace holds %v", seen, tr.Events())
	}
	// Taps survive Reset: they are wiring, not data.
	tr.Reset()
	tr.Record(Input, "i", 3, 9)
	if len(seen) != 3 || seen[2].Name != "i" {
		t.Fatalf("tap should survive Reset: %v", seen)
	}
	if tr.Len() != 1 {
		t.Fatalf("reset trace should hold one event, has %d", tr.Len())
	}
}

func TestTraceTapNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil tap must panic")
		}
	}()
	NewTrace().Tap(nil)
}

// BenchmarkTraceInterleavedAppendQuery exercises the pattern a live
// observer produces — every append followed by a query. FirstAt's binary
// search lands at the query instant, and the first event there matches.
func BenchmarkTraceInterleavedAppendQuery(b *testing.B) {
	tr := NewTrace()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i) * time.Microsecond
		tr.Record(Controlled, "sig", int64(i&1), at)
		if _, ok := tr.FirstAt(Controlled, "sig", at/2, nil); !ok {
			b.Fatal("query missed")
		}
	}
}
