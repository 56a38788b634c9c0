package main

import (
	"sort"

	"chef/internal/obs"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of xs that has at least
// minBeyond samples above it, and that percentile. With too few samples no
// percentile qualifies: it returns the maximum at percentile 100 and ok ==
// false.
func tailPercentile(xs []float64, minBeyond int) (value, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	if n <= minBeyond {
		return s[n-1], 100, false
	}
	i := n - minBeyond - 1
	return s[i], 100 * float64(i+1) / float64(n), true
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so the spreads printed here match that tool.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4 // outside [0, 4] at the ends: Python extrapolates there too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// failFrac is the share of attempted explorations that failed. An
// exploration with several failure reasons counts once.
func failFrac(runs []*run) (attempted, failed int, frac float64) {
	for _, r := range runs {
		attempted++
		if len(r.fails) > 0 {
			failed++
		}
	}
	if attempted == 0 {
		return 0, 0, 0
	}
	return attempted, failed, float64(failed) / float64(attempted)
}

// histQuantile estimates quantile q of a bucketed histogram (obs.Histogram's
// power-of-two buckets, sorted by Lo), interpolating linearly inside the
// bucket that holds it.
func histQuantile(bs []obs.BucketCount, q float64) float64 {
	var total int64
	for _, b := range bs {
		total += b.N
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for _, b := range bs {
		if float64(seen+b.N) >= rank {
			return float64(b.Lo) + float64(b.Hi-b.Lo)*(rank-float64(seen))/float64(b.N)
		}
		seen += b.N
	}
	return float64(bs[len(bs)-1].Hi)
}
