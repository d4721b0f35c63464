package main

import (
	"math"
	"slices"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method — the one Python's statistics.quantiles(xs, n=4)
// uses, so a spread computed here matches one computed from the printed
// values. Fewer than two values yield that value (or zero) three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle quartile of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance of xs as a share of their median —
// the steadiness figure the compare rule and the run-set record use.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	s := (q3 - q1) / m
	if s < 0 {
		s = -s
	}
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, and whether at least minBeyond samples lie beyond it — the
// condition under which a tail percentile is worth reporting at all.
func percentile(sorted []int64, p float64, minBeyond int) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return sorted[rank], n-1-rank >= minBeyond
}
