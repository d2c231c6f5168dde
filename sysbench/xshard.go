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
	"repro/internal/shard"
)

// xshard: two servers with sharding enabled on loopback in this process,
// each over its own durable WAL (SyncWAL). The client is a sharded pool,
// one connection per shard. An open loop of entangled pairs whose two
// partners have different home shards drives the shard-0 matchmaker and
// the two-phase group commit; each committed pair's bookings are read
// back from their home shards.

type xshardSizes struct {
	flights, dests int
	rate           float64 // pairs/s
}

func xshardSize(o options) xshardSizes {
	if o.small {
		return xshardSizes{flights: 20, dests: 4, rate: 10}
	}
	return xshardSizes{flights: 100, dests: 10, rate: 20}
}

const shards = 2

type xshardEnv struct {
	o       options
	sz      xshardSizes
	dir     string
	wals    [shards]string
	dbs     [shards]*entangle.DB
	srvs    [shards]*server.Server
	served  [shards]chan error
	regs    [shards]*obs.Registry // nil untraced
	trs     [shards]*obs.Tracer   // nil untraced
	pool    *client.Pool
	place   *shard.Map
	rng     *rand.Rand
	flights flightSet

	mu      sync.Mutex
	pairs   []pairRec
	traces  []uint64
	submits samples // traced: the benchmark's own span around SubmitScript, ms
	scripts []string
}

func setupXShard(o options, traced bool, idx int) (env, error) {
	e := &xshardEnv{o: o, sz: xshardSize(o), rng: rand.New(rand.NewSource(o.seed))}
	e.flights = genFlights(e.rng, e.sz.flights, e.sz.dests)
	e.dir = filepath.Join(o.tmp, fmt.Sprintf("xshard-%d-%d", os.Getpid(), idx))
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	var lns [shards]net.Listener
	var addrs []string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			os.RemoveAll(e.dir)
			return nil, err
		}
		lns[i] = ln
		addrs = append(addrs, ln.Addr().String())
	}
	e.place = shard.New(addrs)
	// Both engines open back to back, so their retry ticks start in phase
	// and every run sees the same tick alignment across shards.
	for i := range e.dbs {
		e.wals[i] = filepath.Join(e.dir, fmt.Sprintf("shard%d.wal", i))
		opts := entangle.Options{Path: e.wals[i], SyncWAL: true}
		if traced {
			e.regs[i] = obs.NewRegistry()
			e.trs[i] = obs.NewTracer(obs.TracerOptions{RingSize: 1 << 17, Shard: i})
			opts.Metrics, opts.Tracer = e.regs[i], e.trs[i]
		}
		db, err := entangle.Open(opts)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			e.close()
			return nil, err
		}
		e.dbs[i] = db
	}
	for i, db := range e.dbs {
		srv := server.New(db)
		err := loadFlights(db, e.flights)
		if err == nil {
			err = srv.EnableSharding(e.place, i, server.ShardOptions{})
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			e.close()
			return nil, err
		}
		e.srvs[i], e.served[i] = srv, make(chan error, 1)
		go func(i int, ln net.Listener) { e.served[i] <- e.srvs[i].Serve(ln) }(i, lns[i])
	}
	pool, err := client.DialShardedPool(addrs[0], client.Options{Trace: traced})
	if err != nil {
		e.close()
		return nil, err
	}
	e.pool = pool
	return e, nil
}

// loadFlights creates the booking schema and preloads Flights in one
// transaction; every shard holds the whole flight catalog.
func loadFlights(db *entangle.DB, f flightSet) error {
	if err := db.ExecDDL(bookingDDL); err != nil {
		return err
	}
	o := db.RunDirect(entangle.Program{Name: "preload", Body: func(tx *entangle.Tx) error {
		for _, fno := range f.fnos {
			if _, err := tx.Insert("Flights", flightRow(fno, f.destOf[fno])); err != nil {
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

// stop shuts the deployment down gracefully: servers first, then the
// engines drain and close, then the sharding transport.
func (e *xshardEnv) stop() error {
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
	var firstErr error
	for i, srv := range e.srvs {
		if srv != nil {
			shutdown(srv)
			<-e.served[i]
		}
	}
	for i, db := range e.dbs {
		if db != nil {
			if err := drainClose(db); err != nil && firstErr == nil {
				firstErr = err
			}
			e.dbs[i] = nil
		}
	}
	for i, srv := range e.srvs {
		if srv != nil {
			srv.CloseSharding()
			e.srvs[i] = nil
		}
	}
	return firstErr
}

func (e *xshardEnv) close() {
	e.stop()
	os.RemoveAll(e.dir)
}

func (e *xshardEnv) config() string {
	return fmt.Sprintf("%d servers with EnableSharding (hash placement) on loopback, each over its own WAL with SyncWAL; "+
		"client.DialShardedPool, one binary connection per shard; %d flights per shard; open loop %.0f pairs/s, "+
		"partners on different shards; bookings read back %v after each pair's due time", shards, e.sz.flights, e.sz.rate, readDelay)
}

// crossPair draws pair i: two users with different home shards. The
// first partner's home alternates between the shards, so every seed sends
// the same share of pairs from the matchmaker's shard.
func (e *xshardEnv) crossPair(i int) pairRec {
	p := pairRec{dest: e.flights.pickDest(e.rng)}
	for j := 0; ; j++ {
		p.a = fmt.Sprintf("xa%d_%d", i, j)
		if e.place.Home(p.a) == i%shards {
			break
		}
	}
	for j := 0; ; j++ {
		p.b = fmt.Sprintf("xb%d_%d", i, j)
		if e.place.Home(p.b) != e.place.Home(p.a) {
			return p
		}
	}
}

func (e *xshardEnv) measure(d time.Duration) *phase {
	n := int(e.sz.rate * d.Seconds())
	dues := schedule(e.rng, n, d)
	pairs := make([]pairRec, n)
	for i := range pairs {
		pairs[i] = e.crossPair(i)
	}
	var walBefore int64
	for _, w := range e.wals {
		walBefore += fileSize(w)
	}
	ph := &phase{dur: d}
	cpu0 := cpuTime()
	var mu sync.Mutex
	start := time.Now()
	or := runOpen(dues, func(i int, due time.Time) {
		p := pairs[i]
		ca := e.pool.Route(pairScript(p.a, p.b, p.dest, pairTimeout))
		cb := e.pool.Route(pairScript(p.b, p.a, p.dest, pairTimeout))
		ok, msg, traces, submits := submitPair(ca, cb, p)
		lat := msSince(due)
		p.committed = ok
		e.mu.Lock()
		e.pairs = append(e.pairs, p)
		e.traces = append(e.traces, traces...)
		if e.trs[0] != nil {
			e.submits = append(e.submits, submits...)
		}
		e.mu.Unlock()
		var reads samples
		var readErr error
		var bad string
		if ok {
			reads, bad, readErr = e.readBack(p, due.Add(readDelay))
		}
		mu.Lock()
		defer mu.Unlock()
		ph.attempted += 2 + int64(len(reads))
		if !ok {
			ph.fail("%s", msg)
			return
		}
		now := time.Since(start)
		ph.pair.add(now, lat)
		ph.pairs++
		for _, r := range reads {
			ph.read.add(now, r)
		}
		if readErr != nil {
			ph.fail("%v", readErr)
		}
		if bad != "" {
			ph.wrong("%s", bad)
		}
	})
	ph.elapsed, ph.lateness, ph.invalid = or.elapsed, or.lateness, or.invalid
	ph.pairsPerS = float64(ph.pairs) / ph.elapsed.Seconds()
	ph.cpu = cpuTime() - cpu0
	ph.heapMB = liveHeapMB()
	var walAfter int64
	for _, w := range e.wals {
		walAfter += fileSize(w)
	}
	ph.walBytesPerWrite = float64(walAfter-walBefore) / float64(max(2*ph.pairs, 1))
	for i := 0; i < len(pairs) && i < 100; i++ {
		p := pairs[i]
		e.scripts = append(e.scripts, pairScript(p.a, p.b, p.dest, pairTimeout), bookingQuery(p.a))
	}
	return ph
}

// readDelay is how long after a pair's due time its partners look their
// bookings up.
const readDelay = 250 * time.Millisecond

// readBack reads each partner's booking from its home shard through the
// name index once due has passed: timed point reads and the pair's first
// correctness check.
func (e *xshardEnv) readBack(p pairRec, due time.Time) (reads samples, bad string, err error) {
	if w := time.Until(due); w > 0 {
		time.Sleep(w)
	}
	var fnos [2]int64
	for i, name := range []string{p.a, p.b} {
		home := e.place.Home(name)
		t := time.Now()
		res, err := e.pool.GetShard(home).Query(bookingQuery(name))
		reads = append(reads, msSince(t))
		if err != nil {
			return reads, "", fmt.Errorf("read-back of %s on shard %d: %w", name, home, err)
		}
		if len(res.Rows) != 1 {
			return reads, fmt.Sprintf("read-back of %s on shard %d returned %d bookings, want 1", name, home, len(res.Rows)), nil
		}
		fnos[i] = res.Rows[0][0].Int64()
	}
	if fnos[0] != fnos[1] || e.flights.destOf[fnos[0]] != p.dest {
		return reads, fmt.Sprintf("pair %s/%s read back flights %d/%d for %s", p.a, p.b, fnos[0], fnos[1], p.dest), nil
	}
	return reads, "", nil
}

func (e *xshardEnv) finish(ph *phase) {
	defer os.RemoveAll(e.dir)
	if e.trs[0] != nil {
		e.layers(ph)
	}
	if err := e.stop(); err != nil {
		ph.wrong("closing the shards: %v", err)
	}
	// Graceful restart of both shards from their WALs: every committed
	// pair holds matching bookings on both home shards, and no pair is
	// half-committed.
	start := time.Now()
	var books map[string][]booking
	for i, w := range e.wals {
		db, err := entangle.Open(entangle.Options{Path: w, SyncWAL: true})
		if err != nil {
			ph.wrong("recovering shard %d: %v", i, err)
			return
		}
		books, err = readBookings(dbRows(db), i, books)
		db.Close()
		if err != nil {
			ph.wrong("reading shard %d: %v", i, err)
			return
		}
	}
	ph.recoveryS = time.Since(start).Seconds()
	ph.problems = append(ph.problems, checkPairs(e.pairs, books, e.flights.destOf, nil, e.place.Home)...)
}

func (e *xshardEnv) layers(ph *phase) {
	l := map[string]float64{}
	st := collectStages(e.trs[:], e.traces)
	ph.stages = st
	// Counters sum over both engines; histograms are shard 0's.
	snap := e.regs[0].Snapshot()
	for name, v := range e.regs[1].Snapshot().Counters {
		snap.Counters[name] += v
	}
	engineLayers(l, snap, st, ph.pairs)
	c := snap.Counters
	if g := c["dist_groups"]; g > 0 {
		l["dist.offers_per_group"] = float64(c["dist_offers"]) / float64(g)
		l["dist.group_abort_frac"] = float64(c["dist_group_aborts"]) / float64(g)
	}
	l["dist.commit_2pc_p50_ms"] = st.byName["commit.2pc"].pct(0.5)
	l["dist.offer_wait_p50_ms"] = st.requeueWait.pct(0.5)
	l["client.submit_p50_us"] = e.submits.pct(0.5) * 1000
	l["server.transport_ms"] = ph.read.v.pct(0.5) - snap.Histograms["exec_latency"].P50MS
	for i, srv := range e.srvs {
		l["server.sheds"] += float64(srv.ServiceStats().Sheds)
		cl := e.pool.GetShard(i)
		l["client.retries"] += float64(cl.Retries())
		l["client.reconnects"] += float64(cl.Reconnects())
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
		shape:   bookingShape,
		rows:    bookingRows(e.pairs, e.flights),
		result:  fnoResult(e.flights.fnos[0]),
	}); err != nil {
		ph.wrong("layer ladder: %v", err)
	}
	ph.layers = l
}
