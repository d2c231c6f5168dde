package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/entangle"
	"repro/internal/obs"
)

// pool: an in-process entangle.DB with library defaults and no WAL. A
// standing pool of partnerless entangled transactions, whose timeout
// outlasts the run, is re-executed and re-evaluated by every scheduling
// run, while two closed-loop clients each submit a pair, wait for both
// outcomes and read both bookings back, then repeat.

type poolSizes struct{ flights, dests, dormant, clients int }

func poolSize(o options) poolSizes {
	if o.small {
		return poolSizes{flights: 20, dests: 4, dormant: 10, clients: 2}
	}
	return poolSizes{flights: 100, dests: 10, dormant: 100, clients: 2}
}

const (
	dormantTimeout = time.Hour        // outlasts any run
	pairTimeout    = 30 * time.Second // a pair that takes longer counts as failed
)

type poolEnv struct {
	o       options
	sz      poolSizes
	db      *entangle.DB
	reg     *obs.Registry // nil untraced
	tr      *obs.Tracer   // nil untraced
	flights flightSet
	dormant []string
	// dormantScripts are the pending set every run re-evaluates.
	dormantScripts []string

	mu      sync.Mutex
	pairs   []pairRec
	traces  []uint64
	submits samples // traced: the benchmark's own span around SubmitScript, ms
}

func setupPool(o options, traced bool, idx int) (env, error) {
	rng := rand.New(rand.NewSource(o.seed))
	sz := poolSize(o)
	e := &poolEnv{o: o, sz: sz, flights: genFlights(rng, sz.flights, sz.dests)}
	opts := entangle.Options{}
	if traced {
		e.reg = obs.NewRegistry()
		e.tr = obs.NewTracer(obs.TracerOptions{RingSize: 1 << 17})
		opts.Metrics, opts.Tracer = e.reg, e.tr
	}
	db, err := entangle.Open(opts)
	if err != nil {
		return nil, err
	}
	e.db = db
	if err := db.ExecDDL(bookingDDL); err != nil {
		e.close()
		return nil, err
	}
	if _, err := db.Exec(e.flights.insertScript()); err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < sz.dormant; i++ {
		me := fmt.Sprintf("ghost%03d", i)
		// Dormant destinations are spread evenly, so every seed leaves the
		// same amount of grounding work in the pool.
		dest := e.flights.dests[i%len(e.flights.dests)]
		script := pairScript(me, fmt.Sprintf("nobody%03d", i), dest, dormantTimeout)
		if _, err := db.SubmitScript(script); err != nil {
			e.close()
			return nil, err
		}
		e.dormant = append(e.dormant, me)
		e.dormantScripts = append(e.dormantScripts, script)
	}
	// One synchronous run pools every dormant transaction before timing.
	db.Flush()
	if st := db.Stats(); st.Submitted != int64(sz.dormant) {
		e.close()
		return nil, fmt.Errorf("pool: %d of %d dormant transactions submitted", st.Submitted, sz.dormant)
	}
	return e, nil
}

func (e *poolEnv) close() { e.db.Close() }

func (e *poolEnv) config() string {
	return fmt.Sprintf("in-process entangle.DB, library defaults (RetryInterval 25ms, GroundCache off), no WAL; "+
		"%d flights over %d destinations; %d dormant transactions (timeout %v); closed loop, %d clients",
		e.sz.flights, e.sz.dests, e.sz.dormant, dormantTimeout, e.sz.clients)
}

func (e *poolEnv) measure(d time.Duration) *phase {
	ph := &phase{dur: d}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	results := make([]*phase, e.sz.clients)
	for c := 0; c < e.sz.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = e.client(c, start, deadline)
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for _, r := range results {
		ph.pair.merge(r.pair)
		ph.read.merge(r.read)
		ph.pairs += r.pairs
		ph.attempted += r.attempted
		ph.failed += r.failed
		ph.problems = append(ph.problems, r.problems...)
	}
	// Closed loop: throughput is what the clients achieved.
	ph.pairsPerS = ph.pair.blockRate(d)
	ph.cpu = cpuTime() - cpu0
	ph.heapMB = liveHeapMB()
	return ph
}

// client is one closed-loop user: submit a pair, wait for both outcomes,
// read both bookings back, repeat until the deadline.
func (e *poolEnv) client(c int, start, deadline time.Time) *phase {
	rng := rand.New(rand.NewSource(e.o.seed*1000 + int64(c) + 1))
	ph := &phase{}
	for i := 0; time.Now().Before(deadline); i++ {
		p := pairRec{a: fmt.Sprintf("c%da%d", c, i), b: fmt.Sprintf("c%db%d", c, i), dest: e.flights.pickDest(rng)}
		ph.attempted += 2
		h1, err := e.submit(pairScript(p.a, p.b, p.dest, pairTimeout))
		if err != nil {
			ph.fail("submit %s: %v", p.a, err)
			e.record(p, nil)
			continue
		}
		sent := time.Now() // the later partner's send
		h2, err := e.submit(pairScript(p.b, p.a, p.dest, pairTimeout))
		if err != nil {
			ph.fail("submit %s: %v", p.b, err)
			h1.Wait()
			e.record(p, h1)
			continue
		}
		o1, o2 := h1.Wait(), h2.Wait()
		lat := msSince(sent)
		p.committed = o1.Status == entangle.StatusCommitted && o2.Status == entangle.StatusCommitted
		e.record(p, h1, h2)
		if !p.committed {
			ph.fail("pair %s/%s: %v (%v) / %v (%v)", p.a, p.b, o1.Status, o1.Err, o2.Status, o2.Err)
			continue
		}
		ph.pair.add(time.Since(start), lat)
		ph.pairs++
		e.readBack(ph, p, start)
	}
	return ph
}

// readBack reads both partners' bookings through the name index: a timed
// point read and the pair's first correctness check.
func (e *poolEnv) readBack(ph *phase, p pairRec, start time.Time) {
	var fnos [2]int64
	for i, name := range []string{p.a, p.b} {
		ph.attempted++
		t := time.Now()
		res, err := e.db.Query(bookingQuery(name))
		ph.read.add(time.Since(start), msSince(t))
		if err != nil {
			ph.fail("read-back of %s: %v", name, err)
			return
		}
		if len(res.Rows) != 1 {
			ph.wrong("read-back of %s returned %d bookings, want 1", name, len(res.Rows))
			return
		}
		fnos[i] = res.Rows[0][0].Int64()
	}
	if fnos[0] != fnos[1] || e.flights.destOf[fnos[0]] != p.dest {
		ph.wrong("pair %s/%s read back flights %d/%d for %s", p.a, p.b, fnos[0], fnos[1], p.dest)
	}
}

func (e *poolEnv) submit(script string) (*entangle.Handle, error) {
	t := time.Now()
	h, err := e.db.SubmitScript(script)
	if e.tr != nil {
		e.mu.Lock()
		e.submits = append(e.submits, msSince(t))
		e.mu.Unlock()
	}
	return h, err
}

func (e *poolEnv) record(p pairRec, hs ...*entangle.Handle) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pairs = append(e.pairs, p)
	for _, h := range hs {
		if h != nil && h.TraceID() != 0 {
			e.traces = append(e.traces, h.TraceID())
		}
	}
}

func (e *poolEnv) finish(ph *phase) {
	defer e.close()
	books, err := readBookings(dbRows(e.db), 0, nil)
	if err != nil {
		ph.wrong("reading bookings: %v", err)
		return
	}
	ph.problems = append(ph.problems, checkPairs(e.pairs, books, e.flights.destOf, e.dormant, nil)...)
	if e.tr == nil {
		return
	}
	l := map[string]float64{}
	st := collectStages([]*obs.Tracer{e.tr}, e.traces)
	ph.stages = st
	engineLayers(l, e.reg.Snapshot(), st, ph.pairs)
	l["client.submit_p50_us"] = e.submits.pct(0.5) * 1000
	if err := ladder(l, e.o, ladderIn{
		scripts:   append([]string{bookingQuery("c0a0"), pairScript("c0a0", "c0b0", e.flights.dests[0], pairTimeout)}, e.dormantScripts...),
		entangled: e.dormantScripts,
		pair:      [2]string{pairScript("c0a0", "c0b0", e.flights.dests[0], pairTimeout), pairScript("c0b0", "c0a0", e.flights.dests[0], pairTimeout)},
		flights:   e.flights,
		shape:     bookingShape,
		rows:      bookingRows(e.pairs, e.flights),
		result:    fnoResult(e.flights.fnos[0]),
	}); err != nil {
		ph.wrong("layer ladder: %v", err)
	}
	ph.layers = l
}
