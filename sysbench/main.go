// Command sysbench is the system benchmark of the entangled-transactions
// engine. It runs one workload against the real program — library and
// server defaults, no simulated latency, no fault registry — checks every
// output, and prints a report followed by one JSON result line.
//
//	bash sysbench/run.sh --workload pool --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	pool    in-process DB, 100 dormant partnerless transactions, closed loop
//	xshard  two sharded servers, cross-shard pairs, open loop
//	oltp    one server, durable WAL, 80/20 point reads/inserts + rare pairs, open loop
//
// BENCHMARK.json lists pool and xshard with their reasons. oltp runs and is
// tested but is not listed: from run to run, the share of its pairs that
// commit as soon as the second partner arrives, rather than after a wait
// of up to one retry tick, swings widely (mean pair latency 2 to 17 ms over
// ten seeds), so its pair latency does not repeat within any bound the
// benchmark may set.
//
// With --trace 0 the run measures end-to-end metrics with tracing off.
// With --trace 1 it measures half the time untraced and half traced, and
// reports per-layer metrics: engine counters and lifecycle spans read
// through public options, plus a ladder of timed direct calls into each
// layer's public functions on the workload's own inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tmp      string
	// small shrinks tables, pools and rates for the smoke tests.
	small bool
}

// phase is what one timed phase of a workload measured.
type phase struct {
	pair, read, write series  // latencies, ms
	lateness          samples // open-loop generator lateness, ms
	pairs             int     // committed pairs
	pairsPerS         float64
	// dur is the phase's scheduled length, which the blocks divide;
	// elapsed runs until the last operation completed.
	dur, elapsed      time.Duration
	attempted, failed int64
	problems          []string // correctness violations
	errors            []string // the first operation failures, for the report
	invalid           string   // non-empty: the generator could not keep its schedule
	heapMB            float64
	cpu               time.Duration // process CPU time over the phase
	walBytesPerWrite  float64       // 0 where the workload has no WAL
	recoveryS         float64       // 0 where the workload has no WAL
	layers            map[string]float64
	stages            *stageSum
}

// fail counts an operation that did not succeed: an error, a refusal, a
// timeout or an aborted pair. Its output is not wrong, so it does not
// make the run incorrect, but it counts against fail_frac.
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.errors) < 20 {
		ph.errors = append(ph.errors, fmt.Sprintf(format, args...))
	}
}

// wrong counts an operation whose output is incorrect: the run fails.
func (ph *phase) wrong(format string, args ...any) {
	ph.failed++
	if len(ph.problems) < 20 {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

// env is one set-up workload instance.
type env interface {
	// measure runs the timed phase for d.
	measure(d time.Duration) *phase
	// finish checks the program's state after the phase, fills the traced
	// per-layer metrics, and releases everything the instance holds.
	finish(ph *phase)
	// close releases the instance without checks (an unused set-up).
	close()
	// config describes the workload's configuration for the report.
	config() string
}

type setupFunc func(o options, traced bool, idx int) (env, error)

var workloads = map[string]setupFunc{
	"pool":   setupPool,
	"oltp":   setupOLTP,
	"xshard": setupXShard,
}

// A run sets its workload up at least minSetups times, and more while the
// set-ups have taken less than setupBudget in total (at most maxSetups);
// setup_s is the median, so one slow set-up does not move it.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: pool, oltp or xshard")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is drawn from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.tmp, "tmp", os.TempDir(), "directory for WAL files")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

// run executes one benchmark run and returns its result line. It returns
// an error for a run that could not be measured, including one whose
// open-loop generator fell behind.
func run(o options, w io.Writer) (*result, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return runTraced(o, setup, dur, w)
	}
	var setups []float64
	var e env
	for i := 0; i < minSetups || (i < maxSetups && sum(setups) < setupBudget.Seconds()); i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setup(o, false, i); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	cfg := e.config()
	ph := e.measure(dur)
	e.finish(ph)
	if ph.invalid != "" {
		return nil, fmt.Errorf("invalid run: %s", ph.invalid)
	}
	setupS := median(setups)
	printReport(w, o, cfg, ph, setups)
	res := &result{
		Correct:   len(ph.problems) == 0,
		Attempted: max(ph.attempted, 1),
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"pair_p50_ms":   {ph.pair.blockPct(0.5, ph.dur), "ms"},
			"pairs_per_s":   {ph.pairsPerS, "1/s"},
			"heap_live_mb":  {ph.heapMB, "MB"},
			"cpu_us_per_op": {float64(ph.cpu.Microseconds()) / float64(max(ph.attempted, 1)), "us"},
			"setup_s":       {setupS, "s"},
		},
	}
	return res, checkFinite(res)
}

// runTraced measures half the time untraced and half traced, so the
// tracing overhead comes from the same run, and reports per-layer metrics.
func runTraced(o options, setup setupFunc, dur time.Duration, w io.Writer) (*result, error) {
	var phases [2]*phase
	var cfg string
	for i, traced := range []bool{false, true} {
		e, err := setup(o, traced, i)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		cfg = e.config()
		ph := e.measure(dur / 2)
		e.finish(ph)
		if ph.invalid != "" {
			return nil, fmt.Errorf("invalid run: %s", ph.invalid)
		}
		phases[i] = ph
	}
	plain, traced := phases[0], phases[1]
	if traced.layers == nil {
		traced.layers = map[string]float64{}
	}
	layers := traced.layers
	layers["trace.overhead_ratio"] = traced.pair.v.pct(0.5) / plain.pair.v.pct(0.5)
	printReport(w, o, cfg, traced, nil)
	printLayers(w, o, plain, traced)
	res := &result{
		Correct:   len(plain.problems)+len(traced.problems) == 0,
		Attempted: max(plain.attempted+traced.attempted, 1),
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	for _, l := range layerMetrics {
		v, ok := layers[l.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
	return res, nil
}

// checkFinite rejects a result with a metric that could not be measured.
func checkFinite(r *result) error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured (no samples)", name)
		}
	}
	return nil
}

// printReport prints every end-to-end figure of the phase by name and
// unit, including those the result line does not carry.
func printReport(w io.Writer, o options, cfg string, ph *phase, setups []float64) {
	fmt.Fprintf(w, "workload %s seed %d: %.1f s measured, GOMAXPROCS %d\n",
		o.workload, o.seed, ph.elapsed.Seconds(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "  config: %s\n", cfg)
	lat := func(name string, ser series) {
		s := ser.v
		if len(s) == 0 {
			return
		}
		p99 := fmt.Sprintf("p99 n/a (n=%d, needs >= 1000)", len(s))
		if tailOK(len(s), 0.99) {
			p99 = fmt.Sprintf("p99 %.3f ms (n=%d, not gated)", s.pct(0.99), len(s))
		}
		fmt.Fprintf(w, "  %-6s mean %.3f ms  p50 %.3f ms  p90 %.3f ms  (median of %d blocks; whole run mean %.3f p50 %.3f p90 %.3f)  %s\n",
			name, ser.blockMean(ph.dur), ser.blockPct(0.5, ph.dur), ser.blockPct(0.9, ph.dur), blocks, s.mean(), s.pct(0.5), s.pct(0.9), p99)
	}
	lat("pair", ph.pair)
	lat("read", ph.read)
	lat("write", ph.write)
	fmt.Fprintf(w, "  pairs_per_s %.2f 1/s (%d committed pairs)\n", ph.pairsPerS, ph.pairs)
	fmt.Fprintf(w, "  fail_frac %.6f ratio (%d of %d operations)\n", float64(ph.failed)/float64(max(ph.attempted, 1)), ph.failed, ph.attempted)
	if ph.walBytesPerWrite > 0 {
		fmt.Fprintf(w, "  wal_bytes_per_write %.1f B\n", ph.walBytesPerWrite)
		fmt.Fprintf(w, "  recovery_s %.4f s\n", ph.recoveryS)
	}
	fmt.Fprintf(w, "  heap_live_mb %.2f MB\n", ph.heapMB)
	fmt.Fprintf(w, "  cpu_us_per_op %.1f us (%.2f CPU s over %d operations)\n",
		float64(ph.cpu.Microseconds())/float64(max(ph.attempted, 1)), ph.cpu.Seconds(), ph.attempted)
	if len(setups) > 0 {
		fmt.Fprintf(w, "  setup_s %.4f s (median of %d: %s)\n", median(setups), len(setups), fmtList(setups))
	}
	if len(ph.lateness) > 0 {
		fmt.Fprintf(w, "  generator lateness p50 %.3f ms  p90 %.3f ms  max %.3f ms\n",
			ph.lateness.pct(0.5), ph.lateness.pct(0.9), ph.lateness.pct(1))
	}
	for _, e := range ph.errors {
		fmt.Fprintln(w, "  OPERATION FAILED:", e)
		fmt.Fprintln(os.Stderr, "operation failed:", e)
	}
	for _, p := range ph.problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// printLayers prints the per-layer metrics of a traced run and the stage
// reconciliation against the end-to-end pair latency.
func printLayers(w io.Writer, o options, plain, traced *phase) {
	fmt.Fprintf(w, "per-layer (%s, traced half):\n", o.workload)
	for _, l := range layerMetrics {
		v, ok := traced.layers[l.name]
		if !ok || math.IsNaN(v) {
			fmt.Fprintf(w, "  %-28s n/a\n", l.name)
			continue
		}
		fmt.Fprintf(w, "  %-28s %.4f %s\n", l.name, v, l.unit)
	}
	if st := traced.stages; st != nil {
		st.print(w, traced.pair.v.pct(0.5))
	}
	fmt.Fprintf(w, "tracing overhead: pair_p50 traced %.3f ms / untraced %.3f ms = %.3f\n",
		traced.pair.v.pct(0.5), plain.pair.v.pct(0.5), traced.pair.v.pct(0.5)/plain.pair.v.pct(0.5))
}
