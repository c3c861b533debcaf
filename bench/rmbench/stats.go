package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the two closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// beyond is the number of samples that lie above the q-quantile of n
// samples as quantile computes it. A percentile is reported as resolved
// only when at least minBeyond samples lie beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// minBeyond is the tail-sample count a reported percentile needs.
const minBeyond = 10

// quartiles returns the first, second and third quartiles of xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), which the
// benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
