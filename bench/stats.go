package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between the closest ranks; the 50th is the usual median.
// It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile(xs, 50).
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailCandidates are the tail percentiles reported next to a median,
// highest first, with the share of samples beyond each in per mille (kept
// as integers so float rounding never decides whether a sample counts).
var tailCandidates = []struct {
	p        float64
	perMille int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of n samples beyond it, the rule for reporting a timing's
// tail. ok is false when n is too small for any candidate.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n*c.perMille >= 10*1000 {
			return c.p, true
		}
	}
	return 0, false
}

// quartiles returns the first, second and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads this program reports match the ones computed from its JSON
// output with the standard library. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
