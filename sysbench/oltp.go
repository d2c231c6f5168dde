package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/types"
	"repro/internal/wire"
)

// oltp: one server on loopback over a durable WAL (every commit record is
// fsynced before it is acknowledged: SyncWAL). Two pipelined binary-codec
// connections send an open-loop mix of indexed point reads and autocommit
// inserts on an indexed Notes table, and one entangled pair in place of
// every pairEvery-th operation, with no dormant pool.

type oltpSizes struct {
	notes, flights, dests, conns, pairEvery int
	rate, readFrac                          float64 // ops/s; share of non-pair ops that read
}

func oltpSize(o options) oltpSizes {
	if o.small {
		return oltpSizes{notes: 500, flights: 20, dests: 4, conns: 2, pairEvery: 20, rate: 400, readFrac: 0.8}
	}
	return oltpSizes{notes: 20000, flights: 100, dests: 10, conns: 2, pairEvery: 50, rate: 1000, readFrac: 0.8}
}

const notesDDL = `
CREATE TABLE Notes (k INT, v VARCHAR);
CREATE INDEX notes_k ON Notes (k);
`

func readNote(k int64) string { return fmt.Sprintf("SELECT v FROM Notes WHERE k = %d", k) }
func insertNote(k int64, v string) string {
	return fmt.Sprintf("INSERT INTO Notes VALUES (%d, '%s')", k, v)
}

var notesShape = storageShape{"Notes", []types.Column{{Name: "k", Type: types.KindInt}, {Name: "v", Type: types.KindString}}, "k"}

type oltpEnv struct {
	o       options
	sz      oltpSizes
	dir     string
	walPath string
	db      *entangle.DB
	srv     *server.Server
	served  chan error
	clients []*client.Client
	reg     *obs.Registry // nil untraced
	tr      *obs.Tracer   // nil untraced
	rng     *rand.Rand
	flights flightSet
	notes   []string // seeded value of key k

	mu      sync.Mutex
	acked   map[int64]string // acknowledged inserts
	pairs   []pairRec
	traces  []uint64
	submits samples // traced: the benchmark's own span around SubmitScript, ms
	scripts []string
}

func setupOLTP(o options, traced bool, idx int) (env, error) {
	e := &oltpEnv{o: o, sz: oltpSize(o), rng: rand.New(rand.NewSource(o.seed)), acked: map[int64]string{}}
	e.flights = genFlights(e.rng, e.sz.flights, e.sz.dests)
	for k := 0; k < e.sz.notes; k++ {
		e.notes = append(e.notes, randWord(e.rng, 16))
	}
	e.dir = filepath.Join(o.tmp, fmt.Sprintf("oltp-%d-%d", os.Getpid(), idx))
	e.walPath = filepath.Join(e.dir, "wal")
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	opts := entangle.Options{Path: e.walPath, SyncWAL: true}
	if traced {
		e.reg = obs.NewRegistry()
		e.tr = obs.NewTracer(obs.TracerOptions{RingSize: 1 << 17})
		opts.Metrics, opts.Tracer = e.reg, e.tr
	}
	db, err := entangle.Open(opts)
	if err != nil {
		os.RemoveAll(e.dir)
		return nil, err
	}
	e.db = db
	if err := e.load(); err != nil {
		e.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.srv = server.New(db)
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	for i := 0; i < e.sz.conns; i++ {
		c, err := client.DialOptions(ln.Addr().String(), client.Options{Trace: traced})
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// load creates the schema and preloads Notes and Flights in one
// transaction.
func (e *oltpEnv) load() error {
	if err := e.db.ExecDDL(bookingDDL + notesDDL); err != nil {
		return err
	}
	o := e.db.RunDirect(entangle.Program{Name: "preload", Body: func(tx *entangle.Tx) error {
		for k, v := range e.notes {
			if _, err := tx.Insert("Notes", types.Tuple{types.Int(int64(k)), types.Str(v)}); err != nil {
				return err
			}
		}
		for _, fno := range e.flights.fnos {
			if _, err := tx.Insert("Flights", flightRow(fno, e.flights.destOf[fno])); err != nil {
				return err
			}
		}
		return nil
	}})
	if o.Status != entangle.StatusCommitted {
		return fmt.Errorf("preload: %v %v", o.Status, o.Err)
	}
	return nil
}

func (e *oltpEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		shutdown(e.srv)
		<-e.served
	}
	e.db.Close()
	os.RemoveAll(e.dir)
}

func (e *oltpEnv) config() string {
	return fmt.Sprintf("one server (defaults) on loopback, WAL with SyncWAL (fsync before every commit is acknowledged); "+
		"%d binary-codec pipelined connections; %d-row Notes indexed on k, %d flights; open loop %.0f ops/s: "+
		"%.0f%% point reads, the rest inserts; every %dth op an entangled pair instead; no dormant pool",
		e.sz.conns, e.sz.notes, e.sz.flights, e.sz.rate, e.sz.readFrac*100, e.sz.pairEvery)
}

// oltpOp is one scheduled operation.
type oltpOp struct {
	kind  byte // 'r' read, 'w' insert, 'p' pair
	key   int64
	value string
	pair  pairRec
}

func (e *oltpEnv) measure(d time.Duration) *phase {
	n := int(e.sz.rate * d.Seconds())
	dues := schedule(e.rng, n, d)
	ops := make([]oltpOp, n)
	for i := range ops {
		switch {
		case i%e.sz.pairEvery == e.sz.pairEvery-1:
			ops[i] = oltpOp{kind: 'p', pair: pairRec{a: fmt.Sprintf("pa%d", i), b: fmt.Sprintf("pb%d", i), dest: e.flights.pickDest(e.rng)}}
		case e.rng.Float64() < e.sz.readFrac:
			ops[i] = oltpOp{kind: 'r', key: int64(e.rng.Intn(e.sz.notes))}
		default:
			ops[i] = oltpOp{kind: 'w', key: int64(e.sz.notes + i), value: randWord(e.rng, 16)}
		}
	}
	walBefore := fileSize(e.walPath)
	ph := &phase{dur: d}
	cpu0 := cpuTime()
	var mu sync.Mutex
	start := time.Now()
	or := runOpen(dues, func(i int, due time.Time) {
		c := e.clients[i%len(e.clients)]
		op := ops[i]
		switch op.kind {
		case 'r':
			res, err := c.QueryAsync(readNote(op.key)).Result()
			lat := msSince(due)
			mu.Lock()
			defer mu.Unlock()
			ph.attempted++
			ph.read.add(time.Since(start), lat)
			switch {
			case err != nil:
				ph.fail("read k=%d: %v", op.key, err)
			case len(res.Rows) != 1 || res.Rows[0][0].Str64() != e.notes[op.key]:
				ph.wrong("read k=%d returned %v, want %q", op.key, res.Rows, e.notes[op.key])
			}
		case 'w':
			_, err := c.ExecAsync(insertNote(op.key, op.value)).Result()
			lat := msSince(due)
			mu.Lock()
			defer mu.Unlock()
			ph.attempted++
			ph.write.add(time.Since(start), lat)
			if err != nil {
				ph.fail("insert k=%d: %v", op.key, err)
				return
			}
			e.mu.Lock()
			e.acked[op.key] = op.value
			e.mu.Unlock()
		case 'p':
			ok, msg := e.runPair(c, op.pair)
			lat := msSince(due)
			mu.Lock()
			defer mu.Unlock()
			ph.attempted += 2
			if !ok {
				ph.fail("%s", msg)
				return
			}
			ph.pair.add(time.Since(start), lat)
			ph.pairs++
		}
	})
	ph.elapsed, ph.lateness, ph.invalid = or.elapsed, or.lateness, or.invalid
	ph.pairsPerS = float64(ph.pairs) / ph.elapsed.Seconds()
	ph.cpu = cpuTime() - cpu0
	ph.heapMB = liveHeapMB()
	writes := len(e.acked) + 2*ph.pairs
	ph.walBytesPerWrite = float64(fileSize(e.walPath)-walBefore) / float64(max(writes, 1))
	for i := 0; i < len(ops) && len(e.scripts) < 200; i++ {
		switch op := ops[i]; op.kind {
		case 'r':
			e.scripts = append(e.scripts, readNote(op.key))
		case 'w':
			e.scripts = append(e.scripts, insertNote(op.key, op.value))
		case 'p':
			e.scripts = append(e.scripts, pairScript(op.pair.a, op.pair.b, op.pair.dest, pairTimeout))
		}
	}
	return ph
}

// runPair submits both partners of a pair through c, waits for both
// outcomes and records the pair.
func (e *oltpEnv) runPair(c *client.Client, p pairRec) (bool, string) {
	ok, msg, traces, submits := submitPair(c, c, p)
	e.mu.Lock()
	p.committed = ok
	e.pairs = append(e.pairs, p)
	e.traces = append(e.traces, traces...)
	if e.tr != nil {
		e.submits = append(e.submits, submits...)
	}
	e.mu.Unlock()
	return ok, msg
}

// submitPair submits p.a through ca and p.b through cb and waits for both
// outcomes; ok reports both COMMITTED. It also returns the pair's trace
// ids and the duration of each SubmitScript call, ms.
func submitPair(ca, cb *client.Client, p pairRec) (ok bool, msg string, traces []uint64, submits samples) {
	t := time.Now()
	h1, err := ca.SubmitScript(pairScript(p.a, p.b, p.dest, pairTimeout))
	submits = append(submits, msSince(t))
	if err != nil {
		return false, fmt.Sprintf("submit %s: %v", p.a, err), nil, submits
	}
	t = time.Now()
	h2, err := cb.SubmitScript(pairScript(p.b, p.a, p.dest, pairTimeout))
	submits = append(submits, msSince(t))
	if err != nil {
		h1.Wait()
		return false, fmt.Sprintf("submit %s: %v", p.b, err), nil, submits
	}
	o1, o2 := h1.Wait(), h2.Wait()
	traces = []uint64{h1.TraceID(), h2.TraceID()}
	if o1.Status != entangle.StatusCommitted || o2.Status != entangle.StatusCommitted {
		return false, fmt.Sprintf("pair %s/%s: %v (%v) / %v (%v)", p.a, p.b, o1.Status, o1.Err, o2.Status, o2.Err), traces, submits
	}
	return true, "", traces, submits
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (e *oltpEnv) finish(ph *phase) {
	books, err := readBookings(clientRows(e.clients[0]), 0, nil)
	if err != nil {
		ph.wrong("reading bookings: %v", err)
	} else {
		ph.problems = append(ph.problems, checkPairs(e.pairs, books, e.flights.destOf, nil, nil)...)
	}
	if e.tr != nil {
		e.layers(ph)
	}
	// Graceful restart: stop serving, drain, close, then recover from the
	// WAL and check that every acknowledged write is there.
	for _, c := range e.clients {
		c.Close()
	}
	e.clients = nil
	shutdown(e.srv)
	<-e.served
	e.srv = nil
	if err := drainClose(e.db); err != nil {
		ph.wrong("closing the DB: %v", err)
	}
	e.recover(ph)
	os.RemoveAll(e.dir)
}

// recover reopens the WAL and checks every seeded and acknowledged write
// and every booking. recoveryS is the time until the data is readable.
func (e *oltpEnv) recover(ph *phase) {
	start := time.Now()
	db, err := entangle.Open(entangle.Options{Path: e.walPath, SyncWAL: true})
	if err != nil {
		ph.wrong("recovery: %v", err)
		return
	}
	defer db.Close()
	notes, err := db.Query("SELECT k, v FROM Notes")
	if err != nil {
		ph.wrong("recovery read: %v", err)
		return
	}
	ph.recoveryS = time.Since(start).Seconds()
	want := make(map[int64]string, len(e.notes)+len(e.acked))
	for k, v := range e.notes {
		want[int64(k)] = v
	}
	for k, v := range e.acked {
		want[k] = v
	}
	got := make(map[int64][]string, len(notes.Rows))
	for _, r := range notes.Rows {
		got[r[0].Int64()] = append(got[r[0].Int64()], r[1].Str64())
	}
	ph.problems = append(ph.problems, checkWrites(want, got)...)
	books, err := readBookings(dbRows(db), 0, nil)
	if err != nil {
		ph.wrong("recovery read: %v", err)
		return
	}
	ph.problems = append(ph.problems, checkPairs(e.pairs, books, e.flights.destOf, nil, nil)...)
}

func (e *oltpEnv) layers(ph *phase) {
	l := map[string]float64{}
	st := collectStages([]*obs.Tracer{e.tr}, e.traces)
	ph.stages = st
	snap := e.reg.Snapshot()
	engineLayers(l, snap, st, ph.pairs)
	l["client.submit_p50_us"] = e.submits.pct(0.5) * 1000
	l["server.transport_ms"] = ph.read.v.pct(0.5) - snap.Histograms["exec_latency"].P50MS
	l["server.sheds"] = float64(e.srv.ServiceStats().Sheds)
	for _, c := range e.clients {
		l["client.retries"] += float64(c.Retries())
		l["client.reconnects"] += float64(c.Reconnects())
	}
	var rows []types.Tuple
	for k, v := range e.notes {
		rows = append(rows, types.Tuple{types.Int(int64(k)), types.Str(v)})
	}
	if len(e.pairs) == 0 {
		ph.wrong("layer ladder: no pair was submitted")
		return
	}
	p := e.pairs[0]
	if err := ladder(l, e.o, ladderIn{
		scripts: e.scripts,
		pair:    [2]string{pairScript(p.a, p.b, p.dest, pairTimeout), pairScript(p.b, p.a, p.dest, pairTimeout)},
		flights: e.flights,
		shape:   notesShape,
		rows:    rows,
		result:  &wire.Result{Columns: []string{"v"}, Rows: []types.Tuple{{types.Str(e.notes[0])}}},
	}); err != nil {
		ph.wrong("layer ladder: %v", err)
	}
	ph.layers = l
}
