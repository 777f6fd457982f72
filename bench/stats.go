package bench

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Quantile returns the q-quantile of v by linear interpolation between
// order statistics, or NaN for an empty sample.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Quartiles returns the first quartile, median and third quartile of v
// exactly as Python's statistics.quantiles(v, n=4) computes the quartiles
// (its default "exclusive" method), the spread definition the bounds in
// BENCHMARK.json are set against. It needs at least two values.
func Quartiles(v []float64) (q1, med, q3 float64) {
	s := sorted(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// GroupedMedian is the median of values quantized to multiples of step
// (the access log's microsecond resolution), interpolated within the
// median's step as the median of grouped data is. A plain median of
// quantized values repeats the same step from run to run and hides any
// change smaller than it. When the two middle values lie in different
// steps it is the ordinary median.
func GroupedMedian(v []float64, step float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	lo, mid := s[(n-1)/2], s[n/2]
	if mid-lo >= step/2 {
		return (lo + mid) / 2
	}
	below := float64(sort.SearchFloat64s(s, mid-step/2))
	upto := float64(sort.SearchFloat64s(s, mid+step/2))
	return mid - step/2 + (float64(n)/2-below)/(upto-below)*step
}

// sum returns the total of v.
func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
