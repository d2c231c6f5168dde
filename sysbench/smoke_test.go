package main

import (
	"bytes"
	"testing"
)

// TestWorkloadSmoke runs every workload at tiny sizes through its
// correctness checks, untraced and traced, and expects a complete result.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke runs skipped in -short mode")
	}
	endToEnd := []string{"pair_p50_ms", "pairs_per_s", "cpu_us_per_op", "heap_live_mb", "setup_s"}
	for _, w := range []string{"pool", "oltp", "xshard"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 1.5, trace: trace, tmp: t.TempDir(), small: true}
			var out bytes.Buffer
			res, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := endToEnd
			if trace {
				want = nil
				for _, l := range layerMetrics {
					want = append(want, l.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				}
			}
		}
	}
}
