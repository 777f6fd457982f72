package bench

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(v, n=4),
// the spread definition BENCHMARK.json's bounds are checked against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := Quartiles(tc.v)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("Quartiles(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestGroupedMedian(t *testing.T) {
	// Three of six values fall in the step around 2, two below it: the
	// median sits a third of the way into that step.
	got := GroupedMedian([]float64{3, 1, 2, 2, 1, 2}, 1)
	if want := 1.5 + 1.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("GroupedMedian = %v, want %v", got, want)
	}
	// Middle values steps apart: the ordinary median.
	if got := GroupedMedian([]float64{1, 5, 9, 20}, 1); got != 7 {
		t.Errorf("GroupedMedian of spread values = %v, want 7", got)
	}
}
