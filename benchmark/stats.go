package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted xs by the nearest-rank rule
// (the value at index ⌈q·n⌉−1), so p99 of 1 100 samples leaves 11 beyond.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the rule the driver applies to repeated runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return median(s), median(s), median(s)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// lats collects one operation's latencies.
type lats []time.Duration

func (l lats) sortedMicros() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = micros(d)
	}
	sort.Float64s(out)
	return out
}

func (l lats) p50us() float64 { return quantile(l.sortedMicros(), 0.50) }

// sample is one completed operation: when it completed and how long it
// took.
type sample struct {
	at  time.Time
	lat time.Duration
}

type samples []sample

func (s samples) lats() lats {
	out := make(lats, len(s))
	for i, x := range s {
		out[i] = x.lat
	}
	return out
}

// between returns the samples completed in [from, to).
func (s samples) between(from, to time.Time) samples {
	var out samples
	for _, x := range s {
		if !x.at.Before(from) && x.at.Before(to) {
			out = append(out, x)
		}
	}
	return out
}
