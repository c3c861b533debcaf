package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.75: 4, 1: 5, 0.1: 1.4} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

// The p75 of a 40-op set has exactly ten ops beyond it; fewer ops leave
// it unresolved.
func TestP75SampleRule(t *testing.T) {
	for n, want := range map[int]int{40: 10, 38: 10, 37: 9, 22: 6, 3: 1, 0: 0} {
		if got := beyond(n, 0.75); got != want {
			t.Errorf("beyond(%d, 0.75) = %d, want %d", n, got, want)
		}
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i)
	}
	p75 := quantile(xs, 0.75)
	above := 0
	for _, x := range xs {
		if x > p75 {
			above++
		}
	}
	if above != beyond(len(xs), 0.75) || above < minBeyond {
		t.Errorf("%d samples above p75 %v, rule says %d", above, p75, beyond(len(xs), 0.75))
	}
}

// Expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
