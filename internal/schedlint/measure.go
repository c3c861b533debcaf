package schedlint

import (
	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

// This file extracts the *measured* counterparts of the static bounds
// from a scheduler trace, so the dominance cross-check (static >=
// measured, always) can run against real simulations.
//
// A release is reconstructed per task from the trace: it opens at the
// first TraceReady while the task is not mid-release and closes at the
// next TraceSleep or TraceExit (SpawnPeriodic bodies end every release
// with SleepUntil). Within a release, TraceBlock/TraceUnblock pairs
// accumulate the release's blocking time. A release that the end of the
// trace cuts short is dropped rather than reported short.

type releaseState struct {
	open      bool
	start     sim.Time
	blockedAt sim.Time
	blocked   bool
	blocking  sim.Time
}

// MeasuredResponses returns each task's worst observed response time:
// the longest ready-to-sleep span over the completed releases in the
// trace. Tasks with no completed release are absent from the map.
func MeasuredResponses(recs []rtos.TraceRecord) map[string]sim.Time {
	worst := map[string]sim.Time{}
	forEachRelease(recs, func(task string, response, _ sim.Time) {
		if response > worst[task] {
			worst[task] = response
		}
	})
	return worst
}

// MeasuredBlocking returns each task's worst observed per-release
// blocking: the largest sum of blocked time within any completed
// release. Tasks that never blocked map to zero (if they completed a
// release) or are absent.
func MeasuredBlocking(recs []rtos.TraceRecord) map[string]sim.Time {
	worst := map[string]sim.Time{}
	forEachRelease(recs, func(task string, _, blocking sim.Time) {
		if b, ok := worst[task]; !ok || blocking > b {
			worst[task] = blocking
		}
	})
	return worst
}

// forEachRelease replays the trace through a per-task state machine and
// calls fn once per completed release with its response time and
// accumulated blocking.
func forEachRelease(recs []rtos.TraceRecord, fn func(task string, response, blocking sim.Time)) {
	state := map[string]*releaseState{}
	get := func(task string) *releaseState {
		st, ok := state[task]
		if !ok {
			st = &releaseState{}
			state[task] = st
		}
		return st
	}
	for _, r := range recs {
		if r.Task == "" {
			continue
		}
		st := get(r.Task)
		switch r.Kind {
		case rtos.TraceReady:
			if !st.open {
				st.open = true
				st.start = r.At
				st.blocking = 0
				st.blocked = false
			}
		case rtos.TraceBlock:
			if st.open && !st.blocked {
				st.blocked = true
				st.blockedAt = r.At
			}
		case rtos.TraceUnblock:
			if st.open && st.blocked {
				st.blocked = false
				st.blocking += r.At - st.blockedAt
			}
		case rtos.TraceSleep, rtos.TraceExit:
			if st.open {
				fn(r.Task, r.At-st.start, st.blocking)
				st.open = false
				st.blocked = false
			}
		}
	}
}
