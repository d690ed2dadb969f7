package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule: the smallest sample with at least p percent of
// the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := rank(p, n) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return s[k]
}

// rank is the nearest rank of the p-th percentile among n samples:
// ceil(p/100 × n), computed so that 99.9 % of 10000 is 9990, not the
// 9991 that floating point makes of it.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentiles are the candidates of highestPercentile, ascending.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest candidate percentile that
// still has at least ten samples beyond it among n samples (the
// choosing-metrics rule for reporting a tail), or 0 when even the
// median has fewer than ten samples above it.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		beyond := n - rank(p, n)
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), so
// spreads computed here match the ones the benchmark's driver takes.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its
// median: the run-to-run noise figure every bound is compared with.
// 0 when there are fewer than two samples or the median is 0.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
