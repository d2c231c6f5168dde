package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// An open-loop generator sends on a schedule whether or not earlier
// requests have completed, as independent users do. Latency is timed from
// each request's due time, so a stall is charged to every request it
// delays, and the generator reports how late it ran.

// Limits past which an open-loop run is invalid rather than reported.
const (
	// maxLatenessP90 bounds how late the generator may send, at p90.
	maxLatenessP90 = 5 * time.Millisecond
	// A backlog grows when the median number of outstanding requests in
	// the last quarter of the schedule exceeds backlogGrowth times the
	// median of the second quarter, and backlogFloor.
	backlogGrowth = 4
	backlogFloor  = 64
	// drainWait bounds the wait for outstanding requests after the last
	// arrival.
	drainWait = 60 * time.Second
)

// schedule draws n arrival offsets in [0, d): exponential inter-arrival
// gaps at mean d/n, scaled so exactly n arrivals fall in the window (a
// Poisson process conditioned on its count), so every seed offers the
// same load.
func schedule(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	gaps := make([]float64, n+1)
	var sum float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	out := make([]time.Duration, n)
	var at float64
	for i := 0; i < n; i++ {
		at += gaps[i]
		out[i] = time.Duration(at / sum * float64(d))
	}
	return out
}

// openResult is what the generator observed.
type openResult struct {
	elapsed  time.Duration // start until the last request completed
	lateness samples       // send time minus due time, ms
	invalid  string
}

// runOpen calls op(i, due) on its own goroutine at each due time and
// waits for every op to return.
func runOpen(dues []time.Duration, op func(i int, due time.Time)) openResult {
	var res openResult
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	type sample struct {
		at time.Duration
		n  int64
	}
	var backlog []sample
	stop := make(chan struct{})
	sampled := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				backlog = append(backlog, sample{time.Since(start), outstanding.Load()})
			}
		}
	}()
	for i, d := range dues {
		due := start.Add(d)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		res.lateness = append(res.lateness, msSince(due))
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			op(i, due)
		}(i, due)
	}
	close(stop)
	<-sampled
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainWait):
		res.invalid = fmt.Sprintf("%d requests still outstanding %v after the last arrival", outstanding.Load(), drainWait)
		<-done
	}
	res.elapsed = time.Since(start)
	if p90 := res.lateness.pct(0.9); p90 > float64(maxLatenessP90)/1e6 {
		res.invalid = fmt.Sprintf("generator lateness p90 %.2f ms exceeds %v", p90, maxLatenessP90)
	}
	if len(dues) > 0 {
		last := dues[len(dues)-1]
		var q2, q4 []float64
		for _, s := range backlog {
			switch {
			case s.at >= last/4 && s.at < last/2:
				q2 = append(q2, float64(s.n))
			case s.at >= last*3/4 && s.at <= last:
				q4 = append(q4, float64(s.n))
			}
		}
		if m2, m4 := median(q2), median(q4); m4 > backlogGrowth*m2 && m4 > backlogFloor {
			res.invalid = fmt.Sprintf("backlog grew from %.0f to %.0f outstanding requests", m2, m4)
		}
	}
	return res
}
