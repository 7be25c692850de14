package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a tail figure may be reported
// at. It is dense between p75 and p95, where runs of 50–500 jobs land,
// so the percentile reported sits close to the highest the rule allows
// (60 closed-loop jobs: p80, not p75).
var tailLadder = []float64{50, 75, 80, 85, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported tail
// percentile: fewer than ten and the figure is one or two outliers.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that
// leaves at least minBeyond of the samples above its nearest rank, and
// returns it with its value. ok is false when even the median leaves
// fewer than minBeyond beyond it.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		// 1-based nearest rank; the epsilon keeps p99.9 of 10000 at
		// rank 9990 although 0.999 × 10000 rounds up in binary.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank >= 1 && n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}
