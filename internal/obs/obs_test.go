package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestHistogramQuantileProperty: for random sample sets, the histogram's
// quantile estimate must land within the bucket containing the exact
// order statistic — i.e. within one bucket ratio (×2^(1/4)) plus bound
// rounding of the true percentile.
func TestHistogramQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		h := newHistogram()
		n := 1 + rng.Intn(5000)
		samples := make([]int64, n)
		for i := range samples {
			// Log-uniform over the bucket range, plus occasional extremes.
			switch rng.Intn(20) {
			case 0:
				samples[i] = rng.Int63n(1000) // underflow region (<1µs)
			case 1:
				samples[i] = int64(time.Hour) + rng.Int63n(int64(time.Hour))
			default:
				exp := 10 + rng.Float64()*18 // 2^10ns .. 2^28ns
				samples[i] = int64(float64(uint64(1)<<10) * pow2(exp-10))
			}
			h.Observe(time.Duration(samples[i]))
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			// Nearest-rank order statistic, mirroring Quantile's definition.
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			if rank > n {
				rank = n
			}
			exact := samples[rank-1]
			got := int64(h.Quantile(q))
			lo, hi := bucketRange(exact)
			if got < lo || got > hi {
				t.Fatalf("trial %d q=%v: estimate %d outside bucket [%d,%d] of exact %d (n=%d)",
					trial, q, got, lo, hi, exact, n)
			}
		}
	}
}

func pow2(x float64) float64 {
	out := 1.0
	for x >= 1 {
		out *= 2
		x--
	}
	if x > 0 {
		out *= 1 + x*0.693147 + x*x*0.240227 // e^(x ln2) ≈ enough for a test distribution
	}
	return out
}

// bucketRange returns the [lower, upper] bounds of the bucket holding ns.
func bucketRange(ns int64) (int64, int64) {
	i := bucketIndex(ns)
	switch {
	case i == 0:
		return 0, bucketBounds[0]
	case i >= len(bucketBounds):
		return bucketBounds[len(bucketBounds)-1], 1 << 62
	default:
		return bucketBounds[i-1], bucketBounds[i]
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("nil histogram must read as empty")
	}
	h2 := newHistogram()
	if h2.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

// TestDisabledRegistryZeroAlloc pins the disabled fast path: every
// instrument handed out by a nil registry must be inert and
// allocation-free.
func TestDisabledRegistryZeroAlloc(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	h := reg.Histogram("y")
	var tr *Tracer
	now := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		c.Add(1)
		c.SetMax(9)
		h.Observe(time.Millisecond)
		tr.Span(7, 7, "ground", now, time.Millisecond, "")
		tr.Begin(7, now)
		tr.Finish(7, now)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %v allocs/op, want 0", allocs)
	}
	if c.Load() != 0 {
		t.Fatal("nil counter must stay 0")
	}
}

// TestEnabledObserveZeroAlloc: even enabled, counter adds and histogram
// observes are allocation-free (the hot path never builds garbage).
func TestEnabledObserveZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops")
	h := reg.Histogram("lat")
	allocs := testing.AllocsPerRun(200, func() {
		c.Add(1)
		h.Observe(137 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("enabled observe allocated %v allocs/op, want 0", allocs)
	}
}

func TestCounterSetMax(t *testing.T) {
	var c Counter
	c.SetMax(5)
	c.SetMax(3)
	if got := c.Load(); got != 5 {
		t.Fatalf("SetMax: got %d want 5", got)
	}
	c.SetMax(8)
	if got := c.Load(); got != 8 {
		t.Fatalf("SetMax: got %d want 8", got)
	}
}

func TestRegistrySnapshotAndGauge(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("commits").Add(3)
	ext := int64(41)
	reg.Gauge("rows_streamed", func() int64 { return ext })
	reg.Histogram("answer").Observe(2 * time.Millisecond)
	s := reg.Snapshot()
	if s.Counters["commits"] != 3 || s.Counters["rows_streamed"] != 41 {
		t.Fatalf("snapshot counters wrong: %+v", s.Counters)
	}
	hs, ok := s.Histograms["answer"]
	if !ok || hs.Count != 1 || hs.P50MS <= 0 {
		t.Fatalf("snapshot histogram wrong: %+v", hs)
	}
	// Same name twice returns the same counter.
	if reg.Counter("commits") != reg.Counter("commits") {
		t.Fatal("Counter must be idempotent per name")
	}
	names := reg.Names()
	want := []string{"answer"} // histograms are not in Names
	_ = want
	if len(names) != 2 || names[0] != "commits" || names[1] != "rows_streamed" {
		t.Fatalf("Names: %v", names)
	}
}

func TestTracerMergeAndActors(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	base := time.Now()
	tr.Begin(10, base)
	tr.Begin(20, base.Add(time.Millisecond))
	tr.Span(10, 10, "submit", base, time.Millisecond, "")
	tr.Span(20, 20, "submit", base.Add(time.Millisecond), time.Millisecond, "")

	canon := tr.Merge([]uint64{20, 10})
	if canon != 10 {
		t.Fatalf("canonical id: got %d want 10 (min)", canon)
	}
	// Spans recorded against the merged-away id land on the canonical.
	tr.Span(20, 20, "ground", base.Add(2*time.Millisecond), time.Millisecond, "round=1")
	tr.Span(10, 10, "commit", base.Add(3*time.Millisecond), time.Millisecond, "")
	if got := tr.Canonical(20); got != 10 {
		t.Fatalf("Canonical(20)=%d want 10", got)
	}

	// A merged trace finishes on the LAST member's Finish: the first one
	// (via the alias) leaves it live so the partner's remaining spans can
	// still land.
	tr.Finish(20, base.Add(4*time.Millisecond))
	if len(tr.Recent()) != 0 {
		t.Fatal("trace rang after one of two member finishes")
	}
	tr.Span(10, 10, "answer", base.Add(4*time.Millisecond), time.Millisecond, "")
	tr.Finish(10, base.Add(5*time.Millisecond))
	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent: %d traces, want 1", len(recent))
	}
	trace := recent[0]
	if trace.ID != 10 || len(trace.Aliases) != 1 || trace.Aliases[0] != 20 {
		t.Fatalf("merged trace wrong: id=%d aliases=%v", trace.ID, trace.Aliases)
	}
	actors := map[uint64]int{}
	for _, s := range trace.Spans {
		actors[s.Actor]++
	}
	if actors[10] != 3 || actors[20] != 2 {
		t.Fatalf("span actors wrong: %v (spans %+v)", actors, trace.Spans)
	}
	// Get resolves both ids to the same finished trace.
	if got, ok := tr.Get(20); !ok || got.ID != 10 {
		t.Fatalf("Get(20): ok=%v id=%d", ok, got.ID)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 4})
	base := time.Now()
	for i := uint64(1); i <= 10; i++ {
		tr.Span(i, i, "exec", base, time.Microsecond, "")
		tr.Finish(i, base.Add(time.Millisecond))
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring: %d traces, want 4", len(recent))
	}
	if recent[0].ID != 10 || recent[3].ID != 7 {
		t.Fatalf("ring order wrong: first=%d last=%d", recent[0].ID, recent[3].ID)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(TracerOptions{SlowQuery: 10 * time.Millisecond, SlowSpan: 5 * time.Millisecond, Log: &buf})
	base := time.Now()
	tr.Begin(3, base)
	tr.Span(3, 3, "ground", base, 7*time.Millisecond, "round=1 rows=99")
	tr.Span(3, 3, "commit", base.Add(7*time.Millisecond), time.Millisecond, "")
	tr.Finish(3, base.Add(20*time.Millisecond))

	out := buf.String()
	if !strings.Contains(out, "slow span trace=3") || !strings.Contains(out, "round=1 rows=99") {
		t.Fatalf("slow-span line missing:\n%s", out)
	}
	if !strings.Contains(out, "trace 3 total=20.000ms") || !strings.Contains(out, "commit") {
		t.Fatalf("slow-query span tree missing:\n%s", out)
	}

	// Under threshold: nothing logged.
	buf.Reset()
	tr.Span(4, 4, "exec", base, time.Millisecond, "")
	tr.Finish(4, base.Add(2*time.Millisecond))
	if buf.Len() != 0 {
		t.Fatalf("fast trace logged:\n%s", buf.String())
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("commits").Add(7)
	reg.Histogram("answer").Observe(3 * time.Millisecond)
	tr := NewTracer(TracerOptions{})
	base := time.Now()
	tr.Span(5, 5, "exec", base, time.Millisecond, "")
	tr.Finish(5, base.Add(time.Millisecond))

	mux := DebugMux(reg.Snapshot, tr, func() any { return map[string]int{"submitted": 1} })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var buf strings.Builder
		if _, err := jsonDecodeCheck(resp.Body, &buf); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", path, err, buf.String())
		}
		return []byte(buf.String())
	}

	body := get("/metrics")
	if !strings.Contains(string(body), `"commits": 7`) || !strings.Contains(string(body), `"p99_ms"`) {
		t.Fatalf("/metrics payload wrong:\n%s", body)
	}
	body = get("/traces/recent")
	if !strings.Contains(string(body), `"id": 5`) {
		t.Fatalf("/traces/recent payload wrong:\n%s", body)
	}
	body = get("/traces/get?id=5")
	if !strings.Contains(string(body), `"name": "exec"`) {
		t.Fatalf("/traces/get payload wrong:\n%s", body)
	}
	// /debug/vars is expvar's own JSON.
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("/debug/vars: %v %v", err, resp)
	}
	resp.Body.Close()
}

// jsonDecodeCheck reads r fully into buf and verifies it is valid JSON.
func jsonDecodeCheck(r interface{ Read([]byte) (int, error) }, buf *strings.Builder) (any, error) {
	b := make([]byte, 0, 4096)
	tmp := make([]byte, 4096)
	for {
		n, err := r.Read(tmp)
		b = append(b, tmp[:n]...)
		if err != nil {
			break
		}
	}
	buf.Write(b)
	var v any
	return v, json.Unmarshal(b, &v)
}
