package main

import (
	"math"
	"sort"
)

// dist summarises a set of timing samples: the median, and each tail
// percentile that has at least ten samples beyond it (the rule the
// README states; a p99 over 200 samples would be two points).
type dist struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90,omitempty"`
	P99    float64 `json:"p99,omitempty"`
	Max    float64 `json:"max"`
	HasP90 bool    `json:"-"`
	HasP99 bool    `json:"-"`
}

// minTail is how many samples must lie beyond a percentile for it to
// be reported.
const minTail = 10

// tailSupported reports whether n samples leave at least minTail of
// them beyond percentile p.
func tailSupported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minTail
}

// percentile is the nearest-rank percentile of an ascending slice:
// the smallest sample with at least p percent of the set at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summarise sorts a copy of the samples and reduces it to a dist.
func summarise(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: percentile(s, 50)}
	if len(s) == 0 {
		return d
	}
	d.Max = s[len(s)-1]
	if d.HasP90 = tailSupported(len(s), 90); d.HasP90 {
		d.P90 = percentile(s, 90)
	}
	if d.HasP99 = tailSupported(len(s), 99); d.HasP99 {
		d.P99 = percentile(s, 99)
	}
	return d
}

// median is the midpoint median -compare takes over a run set (the
// mean of the two middle values for an even count, matching Python's
// statistics.median, which the driver uses).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the exclusive
// method (Python's statistics.quantiles(v, n=4)), so the spread mmload
// prints is the number the driver computes. It needs two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i*(n+1)) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median, the
// repeatability figure every bound is compared against.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
