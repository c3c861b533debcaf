package schedlint

import (
	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

// This file extracts the *measured* counterpart of the static response
// bounds from a scheduler trace, so the dominance cross-check (static >=
// measured, always) can run against real simulations.
//
// A release is reconstructed per task from the trace: it opens at the
// first TraceReady while the task is not mid-release and closes at the
// next TraceSleep or TraceExit (a periodic task sleeps after every
// release). A release that the end of the trace cuts short is dropped
// rather than reported short.

// MeasuredResponses returns each task's worst observed response time:
// the longest ready-to-sleep span over the completed releases in the
// trace. Tasks with no completed release are absent from the map.
func MeasuredResponses(recs []rtos.TraceRecord) map[string]sim.Time {
	worst := map[string]sim.Time{}
	open := map[string]sim.Time{} // release start of each task mid-release
	for _, r := range recs {
		switch r.Kind {
		case rtos.TraceReady:
			if _, ok := open[r.Task]; !ok {
				open[r.Task] = r.At
			}
		case rtos.TraceSleep, rtos.TraceExit:
			if start, ok := open[r.Task]; ok {
				if resp := r.At - start; resp > worst[r.Task] {
					worst[r.Task] = resp
				}
				delete(open, r.Task)
			}
		}
	}
	return worst
}
