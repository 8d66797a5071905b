package main

import (
	"sort"
	"time"
)

// samples is a set of durations, reported as quantiles in milliseconds.
type samples []time.Duration

// quantileMs returns the q-quantile in milliseconds by linear interpolation
// between order statistics (the convention of Python's statistics module,
// "inclusive" method). The slice is sorted in place.
func (s samples) quantileMs(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return ms(s[len(s)-1])
	}
	frac := pos - float64(lo)
	return ms(s[lo]) + frac*(ms(s[lo+1])-ms(s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of float values (the slice is sorted in place).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
