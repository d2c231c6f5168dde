package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/eq"
	"repro/internal/txn"
)

// memberState is the lifecycle of one transaction within a run, matching
// §4: executing, blocked on an entangled query, ready to commit, or
// aborted.
type memberState int

const (
	stateRunning      memberState = iota
	stateBlocked                  // waiting for an entangled-query answer
	stateReady                    // body returned nil; commit pending group decision
	stateAbortedRetry             // aborted; return to the dormant pool
	stateRolledBack               // program-requested rollback (final)
	stateAbortedFinal             // non-retryable error (final)
)

// member is one transaction participating in a run.
type member struct {
	run   *run
	entry *pending
	tx    *txn.Txn // nil in autocommit (-Q) mode

	state    memberState
	query    *eq.Query // pending entangled query when stateBlocked
	answerCh chan answerMsg
	partners map[*member]bool // entanglement partners accumulated this run
	finalErr error

	// Cross-shard scratch (distCoordinator only). A NoPartner evaluation
	// leaves the groundings behind so afterRound can export them as an
	// offer; distGroup marks a member resumed from a matchmaker prepare,
	// committed through the two-phase path instead of the local rules.
	offerGrounds []*eq.Grounding
	offerTables  []string
	offerCSN     uint64
	distGroup    uint64
}

type answerMsg struct {
	answer   *eq.Answer
	abortRun bool // run ended without an answer: abort and requeue
}

// run executes one §4 scheduling run.
type run struct {
	e       *Engine
	direct  bool // RunDirect: no scheduler, entangled queries rejected
	mu      sync.Mutex
	cond    *sync.Cond
	active  int // members in stateRunning
	members []*member
	wg      sync.WaitGroup
	round   int // evaluation rounds so far (scheduler goroutine only)
}

// sentinels classifying how a body unwound.
var (
	errRetrySentinel    = errors.New("core: retryable abort")
	errRollbackSentinel = errors.New("core: rollback")
	errStaleCommit      = errors.New("core: group member no longer active at commit")
)

func levelFor(iso Isolation) txn.IsolationLevel {
	switch iso {
	case RelaxedReads:
		return txn.ReadCommitted
	case SnapshotIsolated:
		return txn.SnapshotIsolation
	default:
		return txn.Serializable
	}
}

// lockingLevel reports whether iso enforces repeatable (quasi-)reads with
// shared locks and round-snapshot validation. RelaxedReads opts out by
// definition; SnapshotIsolated relies on snapshots plus first-committer-
// wins instead of read locks.
func lockingLevel(iso Isolation) bool {
	return iso != RelaxedReads && iso != SnapshotIsolated
}

// executeRun runs a batch of pooled transactions to quiescence: start all
// members, alternate member execution with entangled-query evaluation
// rounds, then commit/abort per the group-commit rules.
func (e *Engine) executeRun(batch []*pending) {
	// One run is one unit of work against the checkpoint quiescence gate:
	// every member transaction begins, logs, and finalizes inside this
	// bracket, so a checkpoint either runs before the whole run or after
	// it — never against a half-committed run.
	e.txm.Enter()
	defer e.txm.Exit()
	r := &run{e: e}
	r.cond = sync.NewCond(&r.mu)
	runStart := time.Now()
	for _, ent := range batch {
		ent.attempts++
		if t := ent.prog.Trace; t != 0 && e.tracer != nil {
			// The submit span covers the pool wait: (re)enqueue to run start.
			e.tracer.Span(t, t, "submit", ent.enqueued, runStart.Sub(ent.enqueued),
				fmt.Sprintf("attempt=%d", ent.attempts))
		}
		m := &member{
			run:      r,
			entry:    ent,
			answerCh: make(chan answerMsg, 1),
			partners: make(map[*member]bool),
		}
		r.members = append(r.members, m)
	}
	r.active = len(r.members)
	for _, m := range r.members {
		r.wg.Add(1)
		go r.runMember(m)
	}

	// Evaluation rounds: once every member is blocked, ready, or aborted,
	// evaluate all pending entangled queries together; resume the answered
	// transactions; repeat until a round answers nobody (Figure 4's "the
	// system recognizes that no-one can proceed further"). The coordinator
	// brackets each round: beforeRound resumes members whose answers were
	// prepared elsewhere (cross-shard reservations), afterRound exports the
	// still-unmatched queries. The local coordinator makes both a no-op.
	for {
		r.waitQuiescent()
		blocked := r.blockedMembers()
		if len(blocked) == 0 {
			break
		}
		resumed, remaining := e.coord.beforeRound(r, blocked)
		if len(remaining) > 0 {
			resumed += e.evaluateQueries(r, remaining)
		}
		e.coord.afterRound(r)
		if resumed == 0 {
			break
		}
	}

	// Abort members still blocked: they return to the dormant pool.
	for _, m := range r.blockedMembers() {
		r.mu.Lock()
		m.state = stateRunning // resumes only to unwind into abortedRetry
		r.active++
		r.mu.Unlock()
		m.answerCh <- answerMsg{abortRun: true}
	}
	r.wg.Wait()
	e.coord.finalize(r)
}

func (r *run) waitQuiescent() {
	r.mu.Lock()
	for r.active > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

func (r *run) blockedMembers() []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*member
	for _, m := range r.members {
		if m.state == stateBlocked {
			out = append(out, m)
		}
	}
	return out
}

// runMember executes one member's body on its own goroutine.
func (r *run) runMember(m *member) {
	defer r.wg.Done()
	e := r.e
	e.acquireConn()
	defer e.releaseConn()

	if !m.entry.prog.Autocommit {
		tx, err := e.txm.Begin(levelFor(e.opts.Isolation))
		if err != nil {
			m.finalErr = err
			r.setDone(m, stateAbortedFinal)
			return
		}
		m.tx = tx
	}

	err := runBody(m)
	var st memberState
	switch {
	case err == nil:
		st = stateReady
	case errors.Is(err, errRetrySentinel):
		st = stateAbortedRetry
	case errors.Is(err, errRollbackSentinel):
		st = stateRolledBack
		m.finalErr = ErrRolledBack
	default:
		st = stateAbortedFinal
		m.finalErr = err
	}
	if st != stateReady && m.tx != nil {
		m.tx.Abort()
	}
	r.setDone(m, st)
}

// runBody invokes the program body, converting unwind panics into
// sentinel errors.
func runBody(m *member) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if u, ok := p.(unwind); ok {
				if u == unwindRetry {
					err = errRetrySentinel
				} else {
					err = errRollbackSentinel
				}
				return
			}
			panic(p)
		}
	}()
	return m.entry.prog.Body(&Tx{m: m})
}

// setDone records a terminal member state and wakes the scheduler.
func (r *run) setDone(m *member, st memberState) {
	r.mu.Lock()
	m.state = st
	r.active--
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (e *Engine) acquireConn() { e.conns <- struct{}{} }
func (e *Engine) releaseConn() { <-e.conns }

// evaluateQueries runs one entangled-query evaluation round over the
// blocked members and resumes everyone who received an answer (including
// empty answers, per Appendix B). It returns the number of resumed members.
//
// The round pins ONE storage snapshot and every pending query grounds
// against it — no shared locks, no short-lived grounding transactions, no
// lock-manager traffic on the read path. Determinism is preserved because
// a fixed snapshot is a stronger fixed point than the old blocked-members
// argument: even commits from outside the run cannot shift the view
// mid-round. At the locking isolation levels the answered members then
// take shared locks on the grounded tables and validate that no foreign
// commit touched them since the snapshot, which restores the §3.3.3
// repeatable quasi-read guarantee end to end; a member whose validation
// fails aborts and retries in a later run, exactly like a deadlock victim.
func (e *Engine) evaluateQueries(r *run, blocked []*member) int {
	e.bump(e.met.evalRounds)
	r.round++

	snap := e.txm.AcquireSnapshot()
	defer snap.Release()

	// All queries of the round ground against one pinned snapshot, so they
	// share one chain-id capture per table; each query streams through its
	// own cursor clone (posers that wrote a grounded table see their own
	// versions through their clone's Self).
	cursors := newRoundCursors(snap.View)

	pendings := make([]eq.Pending, len(blocked))
	cacheKeys := make([]string, len(blocked))
	for i, m := range blocked {
		view := snap.View
		var txID uint64
		if m.tx != nil {
			// A member grounds against the round snapshot plus its own
			// uncommitted writes.
			txID = m.tx.ID()
			view.Self = txID
		}
		p := eq.Pending{ID: i, Query: m.query, Reader: &groundReader{
			cat:     e.txm.Catalog(),
			view:    view,
			txID:    txID,
			trace:   e.opts.Trace,
			cursors: cursors,
			indexed: e.met.indexedGroundings,
		}}
		// Cross-round grounding reuse: a pending query whose grounded
		// tables' CSN fingerprint has not advanced is answered from its
		// previous groundings without touching the reader.
		if e.groundCache != nil {
			cacheKeys[i] = m.query.String()
			if gs, ok := e.groundCache.lookup(cacheKeys[i], e.txm.Catalog(), m.tx); ok {
				p.Cached, p.HasCached = gs, true
				e.bump(e.met.groundCacheHits)
				// Preserve RG attribution for the isolation checker: the
				// cached result stands in for grounding reads of the same
				// tables.
				if sink := e.opts.Trace; sink != nil && txID != 0 {
					for _, table := range m.query.BodyTables() {
						sink.GroundingRead(txID, table)
					}
				}
			} else {
				e.bump(e.met.groundCacheMisses)
			}
		}
		pendings[i] = p
	}
	// Grounding fans out across the bounded worker pool: every query reads
	// the same immutable snapshot, so parallel grounding is safe. The coordinating-set search inside
	// Evaluate still consumes the groundings in submission order, so the
	// chosen answers match the serialized path's exactly.
	evalStart := time.Now()
	res := eq.Evaluate(pendings, eq.EvalOptions{
		MaxGroundings: e.opts.MaxGroundings,
		GroundWorkers: e.opts.GroundWorkers,
		GroundPoint:   e.groundPt,
		SolveBudget:   e.opts.SolveBudget,
		BatchRows:     e.opts.GroundBatch,
		Stream:        &e.streamStats,
		PullDur:       e.met.groundPull,
	})
	e.bumpN(e.met.solveSteps, int64(res.Solve.Steps))
	if res.Solve.Exhausted {
		e.bump(e.met.solveFallbacks)
	}
	e.met.groundRound.Observe(res.GroundDur)
	e.met.solveRound.Observe(res.SolveDur)

	// Per-round trace spans: every traced member that went through this
	// round's grounding and search gets ground + solve spans (the stage
	// work is shared; the spans attribute its wall time to each waiter).
	var roundNote string
	if e.tracer != nil {
		roundNote = fmt.Sprintf("round=%d", r.round)
		for _, m := range blocked {
			t := m.entry.prog.Trace
			if t == 0 {
				continue
			}
			e.tracer.Span(t, t, "ground", evalStart, res.GroundDur, roundNote)
			e.tracer.Span(t, t, "solve", evalStart.Add(res.GroundDur), res.SolveDur, roundNote)
		}
	}

	// Freshly grounded queries refill the cache (own-writes groundings and
	// fingerprints already past the round snapshot are refused inside).
	if e.groundCache != nil {
		for i, m := range blocked {
			if pendings[i].HasCached {
				continue
			}
			if gs, ok := res.Groundings[i]; ok {
				e.groundCache.store(cacheKeys[i], m.query.BodyTables(), snap.View.CSN, e.txm.Catalog(), m.tx, gs)
			}
		}
	}

	// Entanglement components: answered members connected by partner edges
	// form one entanglement operation each.
	parent := make([]int, len(blocked))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(b)] = find(a) }
	answered := make([]bool, len(blocked))
	for i := range blocked {
		if a := res.Answers[i]; a != nil && a.Status == eq.Answered {
			answered[i] = true
			for _, j := range res.Partners[i] {
				union(i, j)
			}
		}
	}
	components := make(map[int][]int)
	for i := range blocked {
		if answered[i] {
			root := find(i)
			components[root] = append(components[root], i)
		}
	}

	aborted := make(map[int]bool) // members whose quasi-read locks failed
	for _, comp := range components {
		compStart := time.Now()
		// Entangled queries share one fate from here on; their lifecycle
		// traces merge too — one trace id (the smallest) now carries every
		// member's spans, each still attributed to its original actor.
		if e.tracer != nil && len(comp) > 1 {
			ids := make([]uint64, 0, len(comp))
			for _, i := range comp {
				if t := blocked[i].entry.prog.Trace; t != 0 {
					ids = append(ids, t)
				}
			}
			if len(ids) > 1 {
				e.tracer.Merge(ids)
			}
		}
		// recordValidate stamps the lock/validate span (entangle logging,
		// quasi-read locks, round-snapshot validation) on every traced
		// member of the component, however the section exits.
		recordValidate := func(comp []int) {
			if e.tracer == nil {
				return
			}
			d := time.Since(compStart)
			for _, i := range comp {
				t := blocked[i].entry.prog.Trace
				if t == 0 {
					continue
				}
				note := roundNote
				if aborted[i] {
					note += " stale"
				}
				e.tracer.Span(t, t, "validate", compStart, d, note)
			}
		}
		opID := e.nextOpID()
		var txIDs []uint64
		for _, i := range comp {
			if blocked[i].tx != nil {
				txIDs = append(txIDs, blocked[i].tx.ID())
			}
		}
		if len(txIDs) > 0 {
			if err := e.txm.LogEntangle(opID, txIDs); err != nil {
				for _, i := range comp {
					aborted[i] = true
				}
				recordValidate(comp)
				continue
			}
		}
		// Record mutual partnership for group commit.
		for _, i := range comp {
			for _, j := range comp {
				if i != j {
					blocked[i].partners[blocked[j]] = true
				}
			}
		}
		// Quasi-read locks (§3.3.3): at the locking levels every participant
		// takes shared locks on its own grounded tables (the locks the
		// grounding reads would have held under 2PL, acquired post-hoc) and
		// on the tables its partners grounded on, making quasi-reads
		// repeatable under Strict 2PL from here to commit.
		if lockingLevel(e.opts.Isolation) {
			for _, i := range comp {
				m := blocked[i]
				if m.tx == nil {
					continue
				}
				for _, table := range res.GroundTables[i] {
					if err := m.tx.LockTableShared(table); err != nil {
						aborted[i] = true
					}
				}
				for _, j := range comp {
					if i == j {
						continue
					}
					for _, table := range res.GroundTables[j] {
						if err := m.tx.LockTableShared(table); err != nil {
							aborted[i] = true
						}
						if sink := e.opts.Trace; sink != nil && !aborted[i] {
							sink.QuasiRead(m.tx.ID(), table)
						}
					}
				}
			}
			// Snapshot validation: the locks only freeze the tables from now
			// on; if a commit from outside the run slipped in between the
			// round snapshot and the locks, every answer in this component is
			// based on stale groundings — the whole component aborts and
			// retries (like deadlock victims, invisible to the program). The
			// check covers the union of the component's grounded tables,
			// including those grounded by autocommit members, whose answers
			// partners consumed all the same.
			seen := make(map[string]bool)
			var compTables []string
			for _, i := range comp {
				for _, table := range res.GroundTables[i] {
					if !seen[table] {
						seen[table] = true
						compTables = append(compTables, table)
					}
				}
			}
			if e.groundChanged(compTables, snap.View.CSN) {
				for _, i := range comp {
					aborted[i] = true
				}
			}
		}
		if sink := e.opts.Trace; sink != nil {
			sink.Entangle(opID, txIDs)
		}
		recordValidate(comp)
	}

	// Deliver. Empty answers resume the transaction too; NoPartner and
	// Errored members stay blocked for the next round or the end of the
	// run. Empty answers at the locking levels also lock-and-validate the
	// member's own grounded tables — the member proceeds on the strength of
	// "no partner values existed", which must stay true to commit.
	resumed := 0
	for i, m := range blocked {
		a := res.Answers[i]
		if a == nil {
			continue
		}
		if a.Status == eq.NoPartner && e.dist != nil && m.tx != nil {
			// No local partner: remember what this round computed so the
			// coordinator can offer the query to the matchmaker.
			m.offerGrounds = res.Groundings[i]
			m.offerTables = res.GroundTables[i]
			m.offerCSN = snap.View.CSN
		}
		if !aborted[i] && a.Status == eq.EmptyAnswer && lockingLevel(e.opts.Isolation) && m.tx != nil {
			for _, table := range res.GroundTables[i] {
				if err := m.tx.LockTableShared(table); err != nil {
					aborted[i] = true
					break
				}
			}
			if !aborted[i] && e.groundChanged(res.GroundTables[i], snap.View.CSN) {
				aborted[i] = true
			}
		}
		if aborted[i] {
			r.mu.Lock()
			m.state = stateRunning // will unwind to abortedRetry
			r.active++
			r.mu.Unlock()
			m.answerCh <- answerMsg{abortRun: true}
			resumed++ // progress: the member leaves the blocked set
			continue
		}
		switch a.Status {
		case eq.Answered, eq.EmptyAnswer:
			if m.tx != nil {
				// A snapshot-isolated member's later reads should agree with
				// the state its answer was computed against: advance its
				// snapshot to the round's.
				m.tx.RefreshSnapshot(snap.View)
			}
			r.mu.Lock()
			m.state = stateRunning
			m.query = nil
			r.active++
			r.mu.Unlock()
			m.answerCh <- answerMsg{answer: a}
			resumed++
		}
	}
	return resumed
}

// groundChanged reports whether any of tables carries a commit newer than
// csn — the round-snapshot staleness check behind quasi-read validation.
func (e *Engine) groundChanged(tables []string, csn uint64) bool {
	for _, table := range tables {
		if tbl, err := e.txm.Catalog().Get(table); err == nil && tbl.LastCSN() > csn {
			return true
		}
	}
	return false
}
