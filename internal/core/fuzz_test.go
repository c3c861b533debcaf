package core

import (
	"reflect"
	"testing"

	"rmtest/internal/fourvar"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// FuzzVerdictReplay checks the verdict machines' replay against the
// oracle on synthetic traces; no simulation runs, so each exec is cheap.
//
// stimuli holds the gaps between successive stimulus instants (sorted by
// construction, ties included). events holds (kind/value, gap) byte pairs:
// the low two bits of the first byte pick the stimulus signal's m-stream
// (0), the response signal's c-stream (1) or an unrelated signal (2, 3);
// the rest gives the value 0..2, judged by "== 1" (stimulus) and ">= 1"
// (response). Gaps of zero give same-instant ties. timeout and bound are
// small (in ms) so events often land exactly on m + timeout. The seed
// corpus in testdata/fuzz/FuzzVerdictReplay covers a same-instant m and c,
// a response exactly at the deadline, a response skipping an expired
// machine, and one m-event admitting several stimuli.
func FuzzVerdictReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, stimuli, events []byte, timeout, bound uint8) {
		const unit = sim.Time(1e6) // 1 ms
		n := sim.Time(timeout%8 + 1)
		req := Requirement{
			ID:       "FUZZ",
			Stimulus: StimulusSpec{Signal: "btn", Match: Equals(1)},
			Response: ResponseSpec{Signal: "motor", Match: AtLeast(1)},
			Bound:    (sim.Time(bound)%n + 1) * unit,
			Timeout:  n * unit,
		}
		if len(stimuli) > 16 {
			stimuli = stimuli[:16]
		}
		var tc TestCase
		var at sim.Time
		for _, b := range stimuli {
			at += sim.Time(b%4) * unit
			tc.Stimuli = append(tc.Stimuli, at)
		}
		tr := fourvar.NewTrace()
		at = 0
		for i := 0; i+1 < len(events) && i < 128; i += 2 {
			kv, gap := events[i], events[i+1]
			at += sim.Time(gap%6) * unit
			value := int64(kv>>2) % 3
			switch kv & 3 {
			case 0:
				tr.Record(fourvar.Monitored, "btn", value, at)
			case 1:
				tr.Record(fourvar.Controlled, "motor", value, at)
			default:
				tr.Record(fourvar.Controlled, "buzzer", value, at)
			}
		}
		r := &Runner{Req: req}
		sys := &platform.System{Trace: tr}
		if got, want := r.Evaluate(sys, tc), r.evaluate(sys, tc); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay diverges from the oracle\nstimuli: %v\ntrace:\n%sreplay: %v\noracle: %v", tc.Stimuli, tr, got, want)
		}
	})
}
