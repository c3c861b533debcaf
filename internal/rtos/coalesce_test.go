package rtos

import (
	"testing"
	"time"
)

// TestCoalescible pins when a task's back-to-back bursts may be issued as
// one: not while an overrun window is armed and not yet over, and always
// otherwise.
func TestCoalescible(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*Task)
		want []bool // at 0, 10, 20 and 30 ms
	}{
		{"plain", func(*Task) {}, []bool{true, true, true, true}},
		{"overrun window [10ms, 25ms)", func(tk *Task) { tk.InjectOverrun(10*ms, 15*ms, 2, 1) }, []bool{false, false, false, true}},
		{"empty overrun window", func(tk *Task) { tk.InjectOverrun(10*ms, 0, 2, 1) }, []bool{true, true, true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, s := rig(t)
			var got []bool
			tk := s.SpawnPeriodic("a", 1, 0, 10*ms, func(tk *Task) {
				got = append(got, tk.Coalescible())
			})
			tc.arm(tk)
			k.Run(35 * ms)
			if len(got) != len(tc.want) {
				t.Fatalf("sampled %d instants, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Coalescible at %v = %v, want %v", time.Duration(i)*10*ms, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestCPUUsedCountsOnlyWhatRan: CPUTime counts a burst whole from the
// instant it is issued, CPUUsed only the part that has run, across a
// preemption too, and at the end of a run that stops mid-burst.
func TestCPUUsedCountsOnlyWhatRan(t *testing.T) {
	k, s := rig(t)
	lo := s.Spawn("lo", 1, 0, func(tk *Task) { tk.Compute(10 * ms) })
	hi := s.Spawn("hi", 2, 4*ms, func(tk *Task) { tk.Compute(3 * ms) })
	check := func(at, loUsed, hiUsed, loAsked, hiAsked time.Duration) {
		t.Helper()
		if lo.CPUUsed() != loUsed || hi.CPUUsed() != hiUsed ||
			lo.CPUTime() != loAsked || hi.CPUTime() != hiAsked {
			t.Errorf("at %v: used lo=%v hi=%v, asked lo=%v hi=%v; want used %v/%v, asked %v/%v",
				at, lo.CPUUsed(), hi.CPUUsed(), lo.CPUTime(), hi.CPUTime(),
				loUsed, hiUsed, loAsked, hiAsked)
		}
	}
	k.At(2*ms, func() { check(2*ms, 2*ms, 0, 10*ms, 0) })
	k.At(5*ms, func() { check(5*ms, 4*ms, 1*ms, 10*ms, 3*ms) })
	k.Run(9 * ms)
	check(9*ms, 6*ms, 3*ms, 10*ms, 3*ms)
}
