package main

import (
	"container/heap"
	"time"
)

// calibrationMS is the calibration loop's wall time on the reference host
// (2 vCPUs at 2.0 GHz, go1.24.0) when the host is quiet. Timings are
// reported at this host speed: each is scaled by calibrationMS over the
// run's median calibration time, which cancels the host's speed drift
// between runs. The raw timings are printed to stderr beside them.
const calibrationMS = 9.0

// slowdown is the host's slowdown against the reference host, from the
// calibration times taken during a measurement.
func slowdown(calib []float64) float64 { return quantile(calib, 0.5) / calibrationMS }

// calibrate runs a fixed amount of single-goroutine work shaped like a
// simulation kernel — freshly allocated events pushed through a bounded
// heap, and a map update per event — and returns its wall time in
// milliseconds. It measures CPU speed only: a calibration that also did
// goroutine handoff slowed about twice as much as the CLIs under host
// load and over-corrected.
func calibrate() float64 {
	const rounds = 60000
	t := time.Now()
	h := &eventHeap{}
	m := map[int]int{}
	for i := range rounds {
		heap.Push(h, &event{at: int64(i*7919) % 1000003, seq: i})
		if h.Len() > 256 {
			heap.Pop(h)
		}
		m[i%512] += i
	}
	return msSince(t)
}

type event struct {
	at  int64
	seq int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
