package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/eq"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/wire"
)

// layerMetrics are the per-layer metrics a traced run reports, in the
// order of BENCHMARK.json. A metric whose layer the workload does not
// exercise reads 0 and prints as n/a.
var layerMetrics = []struct{ name, unit string }{
	{"core.runs_per_pair", "count"},
	{"core.eval_rounds_per_pair", "count"},
	{"core.requeues_per_pair", "count"},
	{"core.submit_wait_p50_ms", "ms"},
	{"core.answer_p50_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"eq.ground_round_p50_ms", "ms"},
	{"eq.solve_round_p50_ms", "ms"},
	{"eq.ground_pull_p50_us", "us"},
	{"eq.rows_per_round", "count"},
	{"eq.solve_steps_per_round", "count"},
	{"eq.cache_hit_frac", "ratio"},
	{"eq.evaluate_ms", "ms"},
	{"sql.parse_us", "us"},
	{"sql.parse_span_p50_ms", "ms"},
	{"txn.validate_p50_ms", "ms"},
	{"txn.commit_p50_ms", "ms"},
	{"txn.write_conflicts", "count"},
	{"core.widows_averted", "count"},
	{"lock.acquire_release_us", "us"},
	{"storage.lookup_us", "us"},
	{"storage.insert_us", "us"},
	{"wal.commit_flush_p50_ms", "ms"},
	{"wal.commits_per_flush", "count"},
	{"wal.append_sync_us", "us"},
	{"wal.append_nosync_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.bytes_per_op", "B"},
	{"server.ping_p50_us", "us"},
	{"server.transport_ms", "ms"},
	{"server.sheds", "count"},
	{"client.submit_p50_us", "us"},
	{"client.retries", "count"},
	{"client.reconnects", "count"},
	{"dist.offers_per_group", "count"},
	{"dist.group_abort_frac", "ratio"},
	{"dist.commit_2pc_p50_ms", "ms"},
	{"dist.offer_wait_p50_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// stageOrder is the lifecycle span order the reconciliation prints.
var stageOrder = []string{"parse", "submit", "ground", "solve", "validate", "commit", "commit.2pc"}

// stageSum aggregates the lifecycle spans of the pair traces. A member is
// one submitted transaction: the spans of one actor inside a (possibly
// merged) trace, framed by its answer span.
type stageSum struct {
	members int
	// total sums each stage's span time over members, ms.
	total map[string]float64
	// answer sums the members' answer spans, ms.
	answer float64
	// unattributed is each member's answer span minus the part of it its
	// other spans cover, ms.
	unattributed samples
	// requeueWait is the unattributed time plus every submit span after a
	// member's first: the time it sat requeued, waiting for a partner (on
	// another shard: for the matchmaker's prepare to be claimed), ms.
	requeueWait samples
	// byName is every span's duration by stage name, ms.
	byName map[string]samples
}

// collectStages reads the traces of the given ids from the tracers (one
// per engine) and aggregates their spans.
func collectStages(tracers []*obs.Tracer, ids []uint64) *stageSum {
	st := &stageSum{total: map[string]float64{}, byName: map[string]samples{}}
	seen := map[[2]uint64]bool{}
	for _, id := range ids {
		for ti, tr := range tracers {
			t, ok := tr.Get(id)
			if !ok || seen[[2]uint64{uint64(ti), t.ID}] {
				continue
			}
			seen[[2]uint64{uint64(ti), t.ID}] = true
			st.add(t.Spans)
		}
	}
	return st
}

func spanName(s obs.Span) string {
	if s.Note == "2pc" {
		return s.Name + ".2pc"
	}
	return s.Name
}

func (st *stageSum) add(spans []obs.Span) {
	byActor := map[uint64][]obs.Span{}
	for _, s := range spans {
		byActor[s.Actor] = append(byActor[s.Actor], s)
		st.byName[spanName(s)] = append(st.byName[spanName(s)], s.DurMS)
	}
	for _, ss := range byActor {
		var ans *obs.Span
		firstSubmit := -1
		for i, s := range ss {
			switch {
			case s.Name == "answer":
				ans = &ss[i]
			case s.Name == "submit" && (firstSubmit < 0 || s.Start < ss[firstSubmit].Start):
				firstSubmit = i
			}
		}
		if ans == nil {
			continue
		}
		st.members++
		st.answer += ans.DurMS
		var ivs [][2]float64
		var requeued float64
		for i, s := range ss {
			if s.Name == "answer" {
				continue
			}
			if s.Name == "submit" && i != firstSubmit {
				requeued += s.DurMS
			}
			st.total[spanName(s)] += s.DurMS
			lo, hi := max(s.Start, ans.Start), min(s.Start+s.DurMS, ans.Start+ans.DurMS)
			if hi > lo {
				ivs = append(ivs, [2]float64{lo, hi})
			}
		}
		un := ans.DurMS - union(ivs)
		st.unattributed = append(st.unattributed, un)
		st.requeueWait = append(st.requeueWait, un+requeued)
	}
}

// union returns the total length covered by the intervals.
func union(ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end float64
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// print reconciles the stages with the end-to-end pair latency: the mean
// stage times per member plus the unattributed remainder make up the mean
// answer span.
func (st *stageSum) print(w io.Writer, pairP50 float64) {
	if st.members == 0 {
		fmt.Fprintln(w, "stage reconciliation: no traced pair members")
		return
	}
	n := float64(st.members)
	fmt.Fprintf(w, "stage reconciliation over %d traced members (pair_p50 %.3f ms):\n", st.members, pairP50)
	for _, name := range stageOrder {
		if v, ok := st.total[name]; ok {
			fmt.Fprintf(w, "  %-12s mean %.3f ms  p50 %.3f ms\n", name, v/n, st.byName[name].pct(0.5))
		}
	}
	fmt.Fprintf(w, "  %-12s mean %.3f ms  p50 %.3f ms\n", "unattributed", st.unattributed.mean(), st.unattributed.pct(0.5))
	fmt.Fprintf(w, "  (requeued waiting for a partner, later submit spans + unattributed: mean %.3f ms  p50 %.3f ms)\n",
		st.requeueWait.mean(), st.requeueWait.pct(0.5))
	fmt.Fprintf(w, "  %-12s mean %.3f ms  p50 %.3f ms\n", "answer", st.answer/n, st.byName["answer"].pct(0.5))
}

// engineLayers fills the R- and T-sourced metrics of one engine: its
// registry snapshot and the pair traces' stages.
func engineLayers(l map[string]float64, snap obs.Snapshot, st *stageSum, pairs int) {
	c, h := snap.Counters, snap.Histograms
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	p := int64(max(pairs, 1))
	l["core.runs_per_pair"] = ratio(c["runs"], p)
	l["core.eval_rounds_per_pair"] = ratio(c["eval_rounds"], p)
	l["core.requeues_per_pair"] = ratio(c["requeues"], p)
	l["eq.ground_round_p50_ms"] = h["ground_round"].P50MS
	l["eq.solve_round_p50_ms"] = h["solve_round"].P50MS
	l["eq.ground_pull_p50_us"] = h["ground_pull"].P50MS * 1000
	l["eq.rows_per_round"] = ratio(c["ground_rows_streamed"], c["eval_rounds"])
	l["eq.solve_steps_per_round"] = ratio(c["solve_steps"], c["eval_rounds"])
	l["eq.cache_hit_frac"] = ratio(c["ground_cache_hits"], c["ground_cache_hits"]+c["ground_cache_misses"])
	l["txn.write_conflicts"] = float64(c["write_conflicts"])
	l["core.widows_averted"] = float64(c["widows_averted"])
	l["wal.commit_flush_p50_ms"] = h["commit_flush"].P50MS
	// Pair members committed per batched scheduler flush.
	l["wal.commits_per_flush"] = ratio(2*int64(pairs), c["commit_batches"])
	l["core.submit_wait_p50_ms"] = st.byName["submit"].pct(0.5)
	l["core.answer_p50_ms"] = st.byName["answer"].pct(0.5)
	l["core.unattributed_ms"] = st.unattributed.pct(0.5)
	l["sql.parse_span_p50_ms"] = st.byName["parse"].pct(0.5)
	l["txn.validate_p50_ms"] = st.byName["validate"].pct(0.5)
	l["txn.commit_p50_ms"] = st.byName["commit"].pct(0.5)
}

// ladderIn is a workload's own inputs for the layer ladder.
type ladderIn struct {
	scripts   []string  // requests the workload sends
	entangled []string  // standing pending set one run re-evaluates
	pair      [2]string // one pair's scripts
	flights   flightSet
	shape     storageShape
	rows      []types.Tuple // rows of shape, as the workload wrote them
	result    *wire.Result  // a typical response result
}

// storageShape is a table layout with the column its reads look up by.
type storageShape struct {
	table string
	cols  []types.Column
	key   string
}

var bookingShape = storageShape{"Bookings", []types.Column{{Name: "name", Type: types.KindString}, {Name: "fno", Type: types.KindInt}}, "name"}

// ladder times direct calls into each layer's public functions on the
// workload's inputs and fills the L-sourced metrics (means per call,
// except the ping p50).
func ladder(l map[string]float64, o options, in ladderIn) error {
	l["sql.parse_us"] = perCall(len(in.scripts), func() {
		for _, s := range in.scripts {
			sql.Parse(s)
		}
	}) * 1e3

	pending, err := pendingSet(in)
	if err != nil {
		return err
	}
	l["eq.evaluate_ms"] = perCall(1, func() { eq.Evaluate(pending, eq.EvalOptions{}) })

	keyIdx := -1
	for i, c := range in.shape.cols {
		if c.Name == in.shape.key {
			keyIdx = i
		}
	}
	rows := in.rows
	if len(rows) == 0 || keyIdx < 0 {
		return fmt.Errorf("ladder: no rows for %s", in.shape.table)
	}
	var tbl *storage.Table
	l["storage.insert_us"] = perCall(len(rows), func() {
		tbl = storage.NewTable(in.shape.table, types.NewSchema(in.shape.cols...))
		tbl.CreateIndex("ix", in.shape.key)
		for _, r := range rows {
			tbl.Insert(r)
		}
	}) * 1e3
	cols := []string{in.shape.key}
	l["storage.lookup_us"] = perCall(len(rows), func() {
		for _, r := range rows {
			tbl.Lookup(cols, types.Tuple{r[keyIdx]})
		}
	}) * 1e3

	locks := lock.New(time.Second)
	var tx uint64
	l["lock.acquire_release_us"] = perCall(len(rows), func() {
		for i := range rows {
			tx++
			locks.Acquire(tx, lock.TableRow{Table: in.shape.table, Row: lock.AllRows}, lock.IX)
			locks.Acquire(tx, lock.TableRow{Table: in.shape.table, Row: int64(i)}, lock.X)
			locks.ReleaseAll(tx)
		}
	}) * 1e3

	for _, sync := range []bool{false, true} {
		us, err := walAppend(o.tmp, sync, in.shape.table, rows)
		if err != nil {
			return err
		}
		if sync {
			l["wal.append_sync_us"] = us
		} else {
			l["wal.append_nosync_us"] = us
		}
	}

	enc, dec, bytesPerOp, err := wireCodec(in.scripts, in.result)
	if err != nil {
		return err
	}
	l["wire.encode_us"], l["wire.decode_us"], l["wire.bytes_per_op"] = enc, dec, bytesPerOp

	ping, err := pingP50(o)
	if err != nil {
		return err
	}
	l["server.ping_p50_us"] = ping
	return nil
}

// perCall runs fn (which makes n calls) repeatedly for at least 50 ms and
// returns the mean time per call in ms.
func perCall(n int, fn func()) float64 {
	fn() // warm
	var reps int
	start := time.Now()
	for reps == 0 || time.Since(start) < 50*time.Millisecond {
		fn()
		reps++
	}
	return msSince(start) / float64(reps*n)
}

// pendingSet compiles the standing pending set plus one pair into the
// evaluator's input, reading Flights from memory.
func pendingSet(in ladderIn) ([]eq.Pending, error) {
	var flights []types.Tuple
	for _, fno := range in.flights.fnos {
		flights = append(flights, types.Tuple{types.Int(fno), types.Str(in.flights.destOf[fno])})
	}
	reader := eq.MapReader{"Flights": flights}
	cat := storage.NewCatalog()
	if _, err := cat.Create("Flights", types.NewSchema(
		types.Column{Name: "fno", Type: types.KindInt}, types.Column{Name: "dest", Type: types.KindString})); err != nil {
		return nil, err
	}
	var out []eq.Pending
	for i, s := range append(append([]string(nil), in.entangled...), in.pair[:]...) {
		stmts, err := sql.Parse(s)
		if err != nil {
			return nil, err
		}
		for _, st := range stmts {
			if _, ok := st.(*sql.EntangledSelectStmt); ok {
				var tx captureTx
				sql.NewSession().Exec(&tx, cat, st)
				if tx.q == nil {
					return nil, fmt.Errorf("ladder: %q compiled to no entangled query", s)
				}
				out = append(out, eq.Pending{ID: i, Query: tx.q, Reader: reader})
			}
		}
	}
	res := eq.Evaluate(out, eq.EvalOptions{})
	for _, p := range out[len(out)-2:] {
		if a := res.Answers[p.ID]; a == nil || a.Status != eq.Answered {
			return nil, fmt.Errorf("ladder: the pair is not answered by eq.Evaluate")
		}
	}
	return out, nil
}

// walAppend appends Insert+Commit record pairs to a fresh log and returns
// the mean µs per commit.
func walAppend(tmp string, sync bool, table string, rows []types.Tuple) (float64, error) {
	dir, err := os.MkdirTemp(tmp, "ladder-wal")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: sync})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	n := 2000
	if sync {
		n = 200
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		tx := wal.TxID(i + 1)
		r := rows[i%len(rows)]
		if err := log.AppendBatch([]*wal.Record{wal.Insert(tx, table, storage.RowID(i), r), wal.Commit(tx, uint64(i+1))}); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(n), nil
}

// wireCodec times the binary codec on the workload's own request and
// response frames: mean µs to encode and to decode one request plus one
// response, and the bytes they take on the wire.
func wireCodec(scripts []string, result *wire.Result) (enc, dec, bytesPerOp float64, err error) {
	reqs := make([]wire.Request, len(scripts))
	for i, s := range scripts {
		reqs[i] = wire.Request{ID: uint64(i + 1), Op: wire.OpExec, SQL: s}
	}
	resp := wire.Response{ID: 1, OK: true, Result: result}
	var buf []byte
	var total int
	enc = perCall(len(reqs), func() {
		total = 0
		for i := range reqs {
			if buf, err = wire.Binary.AppendRequestFrame(buf[:0], &reqs[i]); err != nil {
				return
			}
			total += len(buf)
			if buf, err = wire.Binary.AppendResponseFrame(buf[:0], &resp); err != nil {
				return
			}
			total += len(buf)
		}
	}) * 1e3
	if err != nil {
		return 0, 0, 0, err
	}
	var reqPayloads [][]byte
	for i := range reqs {
		f, _ := wire.Binary.AppendRequestFrame(nil, &reqs[i])
		p, err := wire.ReadFrame(bytes.NewReader(f))
		if err != nil {
			return 0, 0, 0, err
		}
		reqPayloads = append(reqPayloads, p)
	}
	f, _ := wire.Binary.AppendResponseFrame(nil, &resp)
	respPayload, err := wire.ReadFrame(bytes.NewReader(f))
	if err != nil {
		return 0, 0, 0, err
	}
	dec = perCall(len(reqs), func() {
		for _, p := range reqPayloads {
			var r wire.Request
			var s wire.Response
			wire.Binary.DecodeRequest(p, &r)
			wire.Binary.DecodeResponse(respPayload, &s)
		}
	}) * 1e3
	return enc, dec, float64(total) / float64(len(reqs)), nil
}

// pingP50 serves an empty in-memory DB on loopback and returns the p50
// of Client.Ping round trips in µs: the wire and server dispatch with no
// engine work.
func pingP50(o options) (float64, error) {
	db, err := entangle.Open(entangle.Options{})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := server.New(db)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		shutdown(srv)
		<-served
	}()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var lat samples
	for i := 0; i < 1100; i++ {
		t := time.Now()
		if err := c.Ping(); err != nil {
			return 0, err
		}
		if i >= 100 {
			lat = append(lat, msSince(t)*1000)
		}
	}
	return lat.pct(0.5), nil
}

// captureTx is the transaction the SQL layer hands a compiled entangled
// query to; it keeps the query instead of evaluating it. No other data
// access is expected.
type captureTx struct{ q *eq.Query }

var errCaptureOnly = errors.New("ladder: statement needs data access")

func (t *captureTx) Entangle(q *eq.Query) *eq.Answer {
	t.q = q
	return &eq.Answer{Status: eq.NoPartner}
}
func (*captureTx) Scan(string) ([]types.Tuple, error) { return nil, errCaptureOnly }
func (*captureTx) ScanIDs(string) ([]storage.RowID, []types.Tuple, error) {
	return nil, nil, errCaptureOnly
}
func (*captureTx) Lookup(string, []string, types.Tuple) ([]types.Tuple, error) {
	return nil, errCaptureOnly
}
func (*captureTx) LookupIDs(string, []string, types.Tuple) ([]storage.RowID, []types.Tuple, error) {
	return nil, nil, errCaptureOnly
}
func (*captureTx) Insert(string, types.Tuple) (storage.RowID, error) { return 0, errCaptureOnly }
func (*captureTx) Update(string, storage.RowID, types.Tuple) error   { return errCaptureOnly }
func (*captureTx) Delete(string, storage.RowID) error                { return errCaptureOnly }
