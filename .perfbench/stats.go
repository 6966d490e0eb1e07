package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// quantile returns the nearest-rank q-quantile of an ascending slice: the
// smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly after the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailPercentile returns the highest percentile on the ladder with at
// least minTail samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= minTail {
			return q
		}
	}
	return 0
}

// tailNote names the highest percentile of an ascending sample that has
// minTail samples beyond it, with its value.
func tailNote(sorted []float64) string {
	q := tailPercentile(len(sorted))
	if q == 0 {
		return fmt.Sprintf("no percentile has %d samples beyond it", minTail)
	}
	return fmt.Sprintf("p%g, the highest with %d samples beyond it, is %.1f ms", 100*q, minTail, quantile(sorted, q))
}

// median of unsorted values.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is a set of latencies in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, ms(d)) }

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) median() float64 { return median(s) }

func (s sample) mean() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a count of successes over a stated base.
type ratio struct{ hits, base int }

func (r ratio) value() float64 {
	if r.base == 0 {
		return math.NaN()
	}
	return float64(r.hits) / float64(r.base)
}
