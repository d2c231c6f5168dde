package entangle

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Snapshot consistency: every counter snapshot taken while submissions and
// settlements race must be internally consistent — the settled counters
// (commits + timeouts + rollbacks + failures) can never exceed submitted,
// because both sides of that inequality move under the engine's stats
// lock and both snapshot paths read the whole registry under it too: the
// typed Stats and the serialized MetricsSnapshot that the wire, the shell
// and /metrics serve. Run with -race; before the single-registry refactor
// each field was copied from its own atomic in sequence and this
// invariant had a window.
func TestStatsSnapshotConsistentUnderLoad(t *testing.T) {
	db := openTest(t, Options{RunFrequency: 2, RetryInterval: 2 * time.Millisecond})
	// The direct-exec seeding above commits without submitting, so the
	// invariant is on deltas from this baseline: only Submit-path traffic
	// runs from here on.
	base := db.Stats()
	settledIn := func(s Stats) int64 { return s.Commits + s.Timeouts + s.Rollbacks + s.Failures }
	baseSnap := db.MetricsSnapshot().Counters
	settledInSnap := func(c map[string]int64) int64 {
		return c["commits"] + c["timeouts"] + c["rollbacks"] + c["failures"]
	}

	const pairs = 24
	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Typed reader: hammer Stats while pairs settle.
	var bad []Stats
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			s := db.Stats()
			if settledIn(s)-settledIn(base) > s.Submitted-base.Submitted {
				bad = append(bad, s)
				return
			}
		}
	}()

	// Serialized reader: the same check on the registry snapshot path.
	var badSnap []map[string]int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			c := db.MetricsSnapshot().Counters
			if settledInSnap(c)-settledInSnap(baseSnap) > c["submitted"]-baseSnap["submitted"] {
				badSnap = append(badSnap, c)
				return
			}
		}
	}()

	outcomes := make(chan Outcome, 2*pairs)
	for i := 0; i < pairs; i++ {
		me, them := fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", i)
		for _, pair := range [][2]string{{me, them}, {them, me}} {
			wg.Add(1)
			go func(me, them string) {
				defer wg.Done()
				h, err := db.SubmitScript(pairScript(me, them))
				if err != nil {
					t.Error(err)
					return
				}
				outcomes <- h.Wait()
			}(pair[0], pair[1])
		}
	}
	for i := 0; i < 2*pairs; i++ {
		if o := <-outcomes; o.Status != StatusCommitted {
			t.Fatalf("pair member %d: %+v", i, o)
		}
	}
	close(stop)
	wg.Wait()

	if len(bad) > 0 {
		s := bad[0]
		t.Fatalf("inconsistent Stats: settled=%d > submitted=%d (%+v)",
			settledIn(s)-settledIn(base), s.Submitted-base.Submitted, s)
	}
	if len(badSnap) > 0 {
		c := badSnap[0]
		t.Fatalf("inconsistent MetricsSnapshot: settled=%d > submitted=%d (%v)",
			settledInSnap(c)-settledInSnap(baseSnap), c["submitted"]-baseSnap["submitted"], c)
	}
	final := db.Stats()
	if got, want := settledIn(final)-settledIn(base), final.Submitted-base.Submitted; got != want {
		t.Fatalf("final snapshot not settled: %d of %d", got, want)
	}
	if final.Commits-base.Commits != 2*pairs {
		t.Fatalf("commits = %d, want %d", final.Commits-base.Commits, 2*pairs)
	}
	if c := db.MetricsSnapshot().Counters; c["commits"] != final.Commits || c["submitted"] != final.Submitted {
		t.Fatalf("MetricsSnapshot disagrees with Stats: %v vs %+v", c, final)
	}
}
