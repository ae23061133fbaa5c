package main

import (
	"math"
	"sort"
)

// percentile reads the q-quantile (0..1) from an ascending-sorted sample
// set by the nearest-rank method. An empty set reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sortedCopy returns v ascending without touching the caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the midpoint of v (mean of the two middle values when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method), so
// spreads computed here and by the pipeline agree. Fewer than two values
// read as that value three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	med := median(v)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// segmentStats summarises one timed phase cut into equal segments: the
// per-segment median, p99 and rate are computed first and the phase reports
// the median over segments, so one disturbed segment cannot move a result.
type segmentStats struct {
	P50, P99 float64 // medians over segments, in the samples' unit
	Samples  int     // samples across all segments
}

// summariseSegments takes the samples of a phase and the index at which each
// segment starts (bounds[0] == 0; a segment runs to the next bound or the
// end). Empty segments are skipped.
func summariseSegments(samples []float64, bounds []int) segmentStats {
	st := segmentStats{Samples: len(samples)}
	var p50s, p99s []float64
	for i, lo := range bounds {
		hi := len(samples)
		if i+1 < len(bounds) {
			hi = bounds[i+1]
		}
		if hi <= lo {
			continue
		}
		seg := sortedCopy(samples[lo:hi])
		p50s = append(p50s, percentile(seg, 0.50))
		p99s = append(p99s, percentile(seg, 0.99))
	}
	st.P50 = median(p50s)
	st.P99 = median(p99s)
	return st
}
