package main

import (
	"math"
	"sort"
	"time"
)

// samples holds one latency series in milliseconds.
type samples []float64

// pct returns the q-quantile (0 < q <= 1) by nearest rank: the
// ceil(q*n)-th smallest sample. It returns NaN for an empty series.
func (s samples) pct(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it, the least a tail percentile needs to repeat.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

// mean returns the arithmetic mean, or NaN for an empty series.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// blocks is how many equal time blocks a timed phase is cut into for the
// reported latencies and closed-loop throughput: each figure is the median
// of its per-block values, so a burst of load from outside the benchmark
// that covers one or two blocks does not move it.
const blocks = 5

// series is a latency series: each sample's value in ms and when it
// completed, as an offset from the start of the timed phase.
type series struct {
	v  samples
	at []time.Duration
}

func (s *series) add(at time.Duration, v float64) {
	s.v = append(s.v, v)
	s.at = append(s.at, at)
}

func (s *series) merge(o series) {
	s.v = append(s.v, o.v...)
	s.at = append(s.at, o.at...)
}

// block returns the block of a completion offset in a phase of length d;
// late completions belong to the last block.
func block(at, d time.Duration) int {
	return min(max(int(int64(at)*blocks/int64(d)), 0), blocks-1)
}

// blockPct is the median over the phase's blocks of each block's
// q-quantile; d is the phase length. When a block holds too few samples
// for its quantile to have ten beyond it, it is the whole phase's
// q-quantile instead.
func (s series) blockPct(q float64, d time.Duration) float64 {
	var per [blocks]samples
	for i, v := range s.v {
		b := block(s.at[i], d)
		per[b] = append(per[b], v)
	}
	var qs []float64
	for _, b := range per {
		if !tailOK(len(b), q) {
			return s.v.pct(q)
		}
		qs = append(qs, b.pct(q))
	}
	return median(qs)
}

// blockMean is the median over the phase's blocks of each block's mean.
// A mean follows the share of a two-mode distribution smoothly where a
// median near the boundary between the modes jumps from one to the other.
func (s series) blockMean(d time.Duration) float64 {
	var per [blocks]samples
	for i, v := range s.v {
		b := block(s.at[i], d)
		per[b] = append(per[b], v)
	}
	var means []float64
	for _, b := range per {
		means = append(means, b.mean())
	}
	return median(means)
}

// blockRate is the median over the phase's blocks of the completion rate
// in each block, per second: completions after the block's first one,
// divided by the time from its first to its last completion.
func (s series) blockRate(d time.Duration) float64 {
	var first, last [blocks]time.Duration
	var n [blocks]int
	for _, at := range s.at {
		b := block(at, d)
		if n[b] == 0 || at < first[b] {
			first[b] = at
		}
		if at > last[b] {
			last[b] = at
		}
		n[b]++
	}
	var rates []float64
	for b := range n {
		if n[b] < 2 || last[b] == first[b] {
			return math.NaN()
		}
		rates = append(rates, float64(n[b]-1)/(last[b]-first[b]).Seconds())
	}
	return median(rates)
}
