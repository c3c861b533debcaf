package schedlint

import (
	"rmtest/internal/sim"
)

// computeBlocking derives the per-task worst-case blocking term B_i
// under the priority-inheritance protocol (Sha, Rajkumar & Lehoczky):
//
//	B_i = min( sum over lower-priority tasks j of the longest relevant
//	           critical section of j,
//	           sum over resources m of the longest relevant section on m )
//
// where a section (j, m) is *relevant* to task i when prio_j < prio_i
// and the priority ceiling of m — the highest priority among its users —
// is at least prio_i. The ceiling condition covers both direct blocking
// (i uses m itself) and push-through blocking (a task above i uses m, so
// j's inherited priority while holding m rises above i). Under PIP a
// task is blocked at most once per lower-priority task and at most once
// per resource, hence the min of the two sums.
//
// Semaphore sections are charged the same way for tasks that *use* the
// semaphore (direct blocking is real regardless of inheritance), but —
// lacking inheritance — they give no push-through term; the unbounded
// part of that story is the separate unbounded-priority-inversion
// finding.
func (a *analysis) computeBlocking() map[string]sim.Time {
	out := make(map[string]sim.Time, len(a.cfg.Tasks))
	for i := range a.cfg.Tasks {
		t := &a.cfg.Tasks[i]
		out[t.Name] = a.blockingFor(t)
	}
	return out
}

func (a *analysis) blockingFor(t *TaskSpec) sim.Time {
	// Mutexes: relevant sections per the ceiling rule.
	perTask := map[string]sim.Time{} // lower-prio task -> longest relevant section
	perRes := map[string]sim.Time{}  // resource -> longest relevant section
	consider := func(res string, users []*TaskSpec, hold map[string]sim.Time, pushThrough bool) {
		relevant := pushThrough && ceiling(users) >= t.Prio
		if !pushThrough {
			// Semaphores: only direct blocking, and only if t itself uses
			// the semaphore.
			relevant = holdsUser(users, t)
		}
		if !relevant {
			return
		}
		for _, u := range users {
			if u.Prio >= t.Prio {
				continue
			}
			h := hold[u.Name]
			if h > perTask[u.Name] {
				perTask[u.Name] = h
			}
			if h > perRes[res] {
				perRes[res] = h
			}
		}
	}
	for res, users := range a.mutexUsers {
		consider(res, users, a.hold[res], true)
	}
	for res, users := range a.semUsers {
		consider(res, users, a.semHold[res], false)
	}
	var byTask, byRes sim.Time
	for _, h := range perTask {
		byTask += h
	}
	for _, h := range perRes {
		byRes += h
	}
	if byRes < byTask {
		return byRes
	}
	return byTask
}
