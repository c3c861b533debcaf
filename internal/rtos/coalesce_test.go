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
			tk := s.Spawn("a", 1, 0, func(tk *Task) {
				for range tc.want {
					got = append(got, tk.Coalescible())
					tk.Sleep(10 * ms)
				}
			})
			tc.arm(tk)
			k.Run(time.Second)
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
// preemption too.
func TestCPUUsedCountsOnlyWhatRan(t *testing.T) {
	k, s := rig(t)
	lo := s.Spawn("lo", 1, 0, func(tk *Task) { tk.Compute(10 * ms) })
	hi := s.Spawn("hi", 2, 4*ms, func(tk *Task) { tk.Compute(3 * ms) })
	for _, step := range []struct {
		at               time.Duration
		loUsed, hiUsed   time.Duration
		loAsked, hiAsked time.Duration
	}{
		{2 * ms, 2 * ms, 0, 10 * ms, 0},
		{5 * ms, 4 * ms, 1 * ms, 10 * ms, 3 * ms},
		{20 * ms, 10 * ms, 3 * ms, 10 * ms, 3 * ms},
	} {
		k.Run(step.at)
		if lo.CPUUsed() != step.loUsed || hi.CPUUsed() != step.hiUsed ||
			lo.CPUTime() != step.loAsked || hi.CPUTime() != step.hiAsked {
			t.Fatalf("at %v: used lo=%v hi=%v, asked lo=%v hi=%v; want used %v/%v, asked %v/%v",
				step.at, lo.CPUUsed(), hi.CPUUsed(), lo.CPUTime(), hi.CPUTime(),
				step.loUsed, step.hiUsed, step.loAsked, step.hiAsked)
		}
	}
}
