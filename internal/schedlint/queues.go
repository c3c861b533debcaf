package schedlint

import (
	"strings"

	"rmtest/internal/lint"
	"rmtest/internal/rta"
	"rmtest/internal/sim"
)

// producer is one task sending a fixed worst-case item count per release.
type producer struct {
	t     *TaskSpec
	items int
}

// checkQueues bounds the worst-case backlog of every declared queue and
// flags capacities that cannot hold it.
//
// For a drain-all consumer c (the pipeline schemes' TryRecv loop) the
// queue is emptied once per consumer release, so the backlog is bounded
// by what the producers can enqueue between two consecutive drains. The
// longest such window is one consumer period plus the consumer's
// response time (the drain can land that late in the release). A
// producer sends anywhere up to its response time R_p after its
// release, which itself lands up to its release jitter J_p late, so a
// release that starts before the window can still send inside it: the
// send offset is output jitter. Producer p with items_p sends per
// release contributes
//
//	items_p * ceil((T_c + R_c + J_p + min(R_p, T_p)) / T_p)
//
// items in the window. R_p is capped at T_p because a periodic task
// whose release overruns skips to its next future release, so at most
// one release can straddle the window's start; the cap keeps the bound
// sound for a producer that is not schedulable. Fixed-count consumers
// (Items without DrainAll) only bound the backlog if their drain rate
// meets the producers' aggregate rate; otherwise the backlog grows
// without bound.
//
// If a consumer is unschedulable its response time is meaningless, so
// no finite bound exists: Required is -1 and a warning is reported. A
// queue with producers but no consumer is likewise unbounded.
func (a *analysis) checkQueues(results []rta.Result) []QueueReport {
	resp := make(map[string]sim.Time, len(results))
	sched := make(map[string]bool, len(results))
	for _, r := range results {
		resp[r.Task.Name] = r.Response
		sched[r.Task.Name] = r.Schedulable
	}
	out := make([]QueueReport, 0, len(a.cfg.Queues))
	for _, q := range a.cfg.Queues {
		qr := QueueReport{Name: q.Name, Capacity: q.Capacity}
		var prods []producer
		var cons []*TaskSpec
		var consUse []QueueUse
		for i := range a.cfg.Tasks {
			t := &a.cfg.Tasks[i]
			for _, u := range t.Sends {
				if u.Queue == q.Name && u.Items > 0 {
					prods = append(prods, producer{t, u.Items})
					qr.Producers = append(qr.Producers, t.Name)
				}
			}
			for _, u := range t.Recvs {
				if u.Queue == q.Name {
					cons = append(cons, t)
					consUse = append(consUse, u)
					qr.Consumers = append(qr.Consumers, t.Name)
				}
			}
		}
		switch {
		case len(prods) == 0:
			qr.Required = 0
		case len(cons) == 0:
			qr.Required = -1
			a.add(CodeQueueCapacity, lint.Warn, q.Name,
				"queue %q has producers (%s) but no consumer: backlog is unbounded",
				q.Name, strings.Join(qr.Producers, ", "))
		default:
			qr.Required = a.queueBound(q, prods, cons, consUse, resp, sched)
		}
		if qr.Required > 0 && q.Capacity > 0 && qr.Required > q.Capacity {
			a.add(CodeQueueCapacity, lint.Warn, q.Name,
				"queue %q capacity %d is below the worst-case backlog bound %d: sends can be dropped",
				q.Name, q.Capacity, qr.Required)
		}
		out = append(out, qr)
	}
	return out
}

// queueBound computes the smallest backlog bound any single consumer
// guarantees (any one drain helps, so the best consumer's bound holds).
// It returns -1 when no consumer yields a finite bound.
func (a *analysis) queueBound(q QueueSpec, prods []producer, cons []*TaskSpec, consUse []QueueUse, resp map[string]sim.Time, sched map[string]bool) int {
	best := -1
	for ci, c := range cons {
		if !sched[c.Name] {
			a.add(CodeQueueCapacity, lint.Warn, q.Name,
				"queue %q consumer %q is not schedulable, so no finite backlog bound exists",
				q.Name, c.Name)
			continue
		}
		u := consUse[ci]
		if !u.DrainAll {
			var prodRate float64
			for _, p := range prods {
				prodRate += float64(p.items) / float64(p.t.Period)
			}
			if float64(u.Items)/float64(c.Period) < prodRate {
				a.add(CodeQueueCapacity, lint.Warn, q.Name,
					"queue %q consumer %q drains %d per %v but producers enqueue faster: backlog is unbounded",
					q.Name, c.Name, u.Items, c.Period)
				continue
			}
		}
		window := c.Period + resp[c.Name]
		bound := 0
		for _, p := range prods {
			late := min(resp[p.t.Name], p.t.Period)
			n := ceilDiv(int64(window+p.t.Jitter+late), int64(p.t.Period))
			bound += p.items * int(n)
		}
		if best < 0 || bound < best {
			best = bound
		}
	}
	return best
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 1
	}
	return (a + b - 1) / b
}
