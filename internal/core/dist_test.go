package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// memNet wires two engines and a matchmaker together in-process: the
// participant transports call straight into the matchmaker, and the
// matchmaker's sends call straight into the engines — the full
// cross-shard protocol minus the sockets.
type memNet struct {
	mm      *dist.Matchmaker
	reg     *obs.Registry // the matchmaker's metrics
	engines map[string]*Engine
	// dropYes makes the first N yes-votes vanish (a lost vote; the group
	// must time out and abort).
	dropYes atomic.Int64
}

func (n *memNet) Prepare(node string, p dist.Prepare) error {
	n.engines[node].DeliverPrepare(p)
	return nil
}

func (n *memNet) Decide(node string, d dist.Decide) error {
	n.engines[node].ApplyDecision(d.Group, d.Commit)
	return nil
}

type memTransport struct {
	net  *memNet
	node string
}

func (t *memTransport) Offer(o dist.Offer) { t.net.mm.AddOffer(&o) }

func (t *memTransport) Vote(v dist.Vote) {
	if v.Yes && t.net.dropYes.Add(-1) >= 0 {
		return
	}
	t.net.mm.HandleVote(v)
}

func (t *memTransport) Status(group uint64) (dist.Status, error) {
	return t.net.mm.Decision(group), nil
}

// newDistPair builds two sharded engines over disjoint copies of the
// travel schema, joined by an in-memory matchmaker.
func newDistPair(t *testing.T, groupTimeout time.Duration) (*memNet, *Engine, *Engine) {
	t.Helper()
	return newDistPairOpts(t, groupTimeout, Options{RetryInterval: 10 * time.Millisecond})
}

// newDistPairOpts is newDistPair with both engines built from opts.
func newDistPairOpts(t *testing.T, groupTimeout time.Duration, opts Options) (*memNet, *Engine, *Engine) {
	t.Helper()
	net := &memNet{engines: make(map[string]*Engine), reg: obs.NewRegistry()}
	net.mm = dist.New(dist.Options{
		Send:          net,
		GroupTimeout:  groupTimeout,
		SweepInterval: 20 * time.Millisecond,
		Metrics:       net.reg,
	})
	t.Cleanup(net.mm.Close)
	ea := newTestEngine(t, opts)
	eb := newTestEngine(t, opts)
	ea.EnableDist(DistConfig{Shard: 0, Node: "A", Transport: &memTransport{net: net, node: "A"},
		StatusGrace: 200 * time.Millisecond, StatusTick: 50 * time.Millisecond})
	eb.EnableDist(DistConfig{Shard: 1, Node: "B", Transport: &memTransport{net: net, node: "B"},
		StatusGrace: 200 * time.Millisecond, StatusTick: 50 * time.Millisecond})
	net.engines["A"] = ea
	net.engines["B"] = eb
	return net, ea, eb
}

// TestDistPairCommitsAcrossEngines is the cross-shard milestone at engine
// level: a flight-booking pair split across two engines with disjoint
// storage coordinates through the matchmaker and commits atomically.
func TestDistPairCommitsAcrossEngines(t *testing.T) {
	_, ea, eb := newDistPair(t, 3*time.Second)
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 5*time.Second))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 5*time.Second))
	o1, o2 := h1.Wait(), h2.Wait()
	if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", o1, o2)
	}
	ra := scanAll(t, ea, "Reservations")
	rb := scanAll(t, eb, "Reservations")
	if len(ra) != 1 || len(rb) != 1 {
		t.Fatalf("reservations = %v / %v", ra, rb)
	}
	if !ra[0][1].Equal(rb[0][1]) || !ra[0][2].Equal(rb[0][2]) {
		t.Fatalf("pair booked different flights across shards: %v vs %v", ra, rb)
	}
	// Each shard committed its member through the distributed group path.
	if ga := ea.Stats().GroupCommits; ga != 1 {
		t.Errorf("shard A GroupCommits = %d, want 1", ga)
	}
	if gb := eb.Stats().GroupCommits; gb != 1 {
		t.Errorf("shard B GroupCommits = %d, want 1", gb)
	}
}

// TestDistLostVoteAbortsThenRetries injects a lost yes-vote: the first
// group must resolve to abort (all-or-nothing — nobody commits on a group
// whose tally never completed), after which both members retry and commit
// in a later group.
func TestDistLostVoteAbortsThenRetries(t *testing.T) {
	net, ea, eb := newDistPair(t, 300*time.Millisecond)
	net.dropYes.Store(1)
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 15*time.Second))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 15*time.Second))
	o1, o2 := h1.Wait(), h2.Wait()
	if o1.Status != StatusCommitted || o2.Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", o1, o2)
	}
	ra := scanAll(t, ea, "Reservations")
	rb := scanAll(t, eb, "Reservations")
	if len(ra) != 1 || len(rb) != 1 {
		t.Fatalf("reservations = %v / %v (all-or-nothing violated)", ra, rb)
	}
	if !ra[0][1].Equal(rb[0][1]) {
		t.Fatalf("pair split across flights: %v vs %v", ra, rb)
	}
	// The aborted first group rolled somebody back as an averted widow.
	if wa, wb := ea.Stats().WidowsAverted, eb.Stats().WidowsAverted; wa+wb == 0 {
		t.Errorf("WidowsAverted = %d + %d, want > 0", wa, wb)
	}
}

// TestDistSingletonOffersDoNotMatch: two queries that cannot satisfy each
// other's posts just time out on their own shards; the matchmaker must not
// invent a group.
func TestDistSingletonOffersDoNotMatch(t *testing.T) {
	_, ea, eb := newDistPair(t, time.Second)
	h1 := ea.Submit(bookFlightProg("Mickey", "Goofy", 400*time.Millisecond))
	h2 := eb.Submit(bookFlightProg("Minnie", "Donald", 400*time.Millisecond))
	o1, o2 := h1.Wait(), h2.Wait()
	if o1.Status != StatusTimedOut || o2.Status != StatusTimedOut {
		t.Fatalf("outcomes = %+v, %+v, want timeouts", o1, o2)
	}
	if n := len(scanAll(t, ea, "Reservations")) + len(scanAll(t, eb, "Reservations")); n != 0 {
		t.Fatalf("reservations leaked: %d", n)
	}
}

// noTick is a retry interval no test outlives: any run these tests see was
// started by an arrival, a Flush, or a delivered reservation.
var noTick = Options{RetryInterval: time.Hour}

// waitWithin waits for every handle, failing the test if any is still
// pending after d.
func waitWithin(t *testing.T, d time.Duration, hs ...*Handle) []Outcome {
	t.Helper()
	outs := make([]Outcome, len(hs))
	done := make(chan struct{})
	go func() {
		for i, h := range hs {
			outs[i] = h.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
		return outs
	case <-time.After(d):
		t.Fatalf("%d handles still pending after %v", len(hs), d)
		return nil
	}
}

// TestReservationRunsWithoutRetryTick: a delivered prepare is an event the
// scheduler acts on. With the retry tick out of reach, the only runs are
// the two arrival runs — so the pair commits only if each reservation
// starts a run of its own.
func TestReservationRunsWithoutRetryTick(t *testing.T) {
	_, ea, eb := newDistPairOpts(t, 3*time.Second, noTick)
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 10*time.Second))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 10*time.Second))
	outs := waitWithin(t, 2*time.Second, h1, h2)
	if outs[0].Status != StatusCommitted || outs[1].Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", outs[0], outs[1])
	}
}

// TestReservationRunIsTargeted: the run a reservation starts holds only the
// reserved member; the dormant pool beside it is neither re-executed nor
// requeued again. A full-pool reservation run would requeue 2N+1 entries.
func TestReservationRunIsTargeted(t *testing.T) {
	const n = 50
	_, ea, eb := newDistPairOpts(t, 3*time.Second, noTick)
	for i := 0; i < n; i++ {
		ea.Submit(bookFlightProg(fmt.Sprintf("Loner%d", i), "Nobody", time.Minute))
	}
	ea.Flush()
	before := ea.Stats()
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 30*time.Second))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 30*time.Second))
	// Generous: the arrival run executes all n+1 members, slow under -race.
	outs := waitWithin(t, 20*time.Second, h1, h2)
	if outs[0].Status != StatusCommitted || outs[1].Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", outs[0], outs[1])
	}
	after := ea.Stats()
	if d := after.Runs - before.Runs; d != 2 {
		t.Errorf("shard A runs +%d, want +2 (arrival run, reservation run)", d)
	}
	if d := after.Requeues - before.Requeues; d != n+1 {
		t.Errorf("shard A requeues +%d, want +%d (only the arrival run requeues the pool)", d, n+1)
	}
}

// TestDistReservationMetrics: every delivered reservation is one
// dist_reserve_wait observation, dist_parked drains to zero once the
// group is decided, and the matchmaker's dist_offers_pooled counts the
// offers still waiting for a partner.
func TestDistReservationMetrics(t *testing.T) {
	net, ea, eb := newDistPair(t, 3*time.Second)
	ea.Submit(bookFlightProg("Goofy", "Nobody", time.Minute))
	pooled := func() int64 { return net.reg.Snapshot().Counters["dist_offers_pooled"] }
	for deadline := time.Now().Add(2 * time.Second); pooled() != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("dist_offers_pooled = %d, want 1 (the lone offer)", pooled())
		}
	}
	h1 := ea.Submit(bookFlightProg("Mickey", "Minnie", 10*time.Second))
	h2 := eb.Submit(bookFlightProg("Minnie", "Mickey", 10*time.Second))
	outs := waitWithin(t, 5*time.Second, h1, h2)
	if outs[0].Status != StatusCommitted || outs[1].Status != StatusCommitted {
		t.Fatalf("outcomes = %+v, %+v", outs[0], outs[1])
	}
	for name, e := range map[string]*Engine{"A": ea, "B": eb} {
		snap := e.Metrics().Snapshot()
		if c := snap.Histograms["dist_reserve_wait"].Count; c != 1 {
			t.Errorf("shard %s dist_reserve_wait count = %d, want 1", name, c)
		}
		if p, ok := snap.Counters["dist_parked"]; !ok || p != 0 {
			t.Errorf("shard %s dist_parked = %d (registered %v), want 0", name, p, ok)
		}
	}
	if p := pooled(); p != 1 {
		t.Errorf("dist_offers_pooled = %d after the pair, want 1 (the lone offer)", p)
	}
}
