package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPctNearestRank(t *testing.T) {
	s := samples{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := s.pct(c.q); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(samples(nil).pct(0.5)) {
		t.Error("pct of an empty series should be NaN")
	}
	if s[0] != 5 {
		t.Error("pct reordered its receiver")
	}
}

// TestTailNeedsTenBeyond pins the rule for printing a tail percentile: it
// needs at least ten samples beyond it.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true},
	} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestBlockPctIgnoresOneBurst: a burst confined to one block moves the
// whole-run p90 but not the median of the block p90s.
func TestBlockPctIgnoresOneBurst(t *testing.T) {
	d := 10 * time.Second
	var s series
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * d / 1000
		v := 1.0
		if block(at, d) == 2 {
			v = 100
		}
		s.add(at, v)
	}
	if got := s.blockPct(0.9, d); got != 1 {
		t.Errorf("block p90 = %v, want 1", got)
	}
	if got := s.v.pct(0.9); got != 100 {
		t.Errorf("whole-run p90 = %v, want 100", got)
	}
	if got := s.blockMean(d); got != 1 {
		t.Errorf("block mean = %v, want 1", got)
	}
	if got := s.blockRate(d); math.Abs(got-100) > 1e-9 {
		t.Errorf("block rate = %v/s, want 100/s", got)
	}
	var few series
	for i := 0; i < 50; i++ {
		few.add(time.Duration(i)*d/50, float64(i))
	}
	if got, want := few.blockPct(0.9, d), few.v.pct(0.9); got != want {
		t.Errorf("blocks of 10 samples: p90 = %v, want the whole-run %v", got, want)
	}
	if b := block(d+time.Second, d); b != blocks-1 {
		t.Errorf("a late completion falls in block %d", b)
	}
}

func TestScheduleIsSeededAndExact(t *testing.T) {
	d := 2 * time.Second
	a := schedule(rand.New(rand.NewSource(7)), 500, d)
	b := schedule(rand.New(rand.NewSource(7)), 500, d)
	if len(a) != 500 {
		t.Fatalf("%d arrivals, want 500", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed gave a different schedule")
		}
		if a[i] < 0 || a[i] >= d || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside [0, %v)", i, a[i], d)
		}
	}
}
