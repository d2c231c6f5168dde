package eq

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestGroundingsMatchReferenceAndCarryKeys: over randomized instances, the
// slot-binding executor builds the same head and post atoms and the same
// valuation map as the map-valuation reference, and the atom keys each
// grounding carries equal the ones recomputed from its atoms.
func TestGroundingsMatchReferenceAndCarryKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for caseNo := 0; caseNo < 300; caseNo++ {
		db, _, q := randomCase(rng)
		ref, err := GroundMaterialized(q, db, 0)
		if err != nil {
			t.Fatalf("case %d: reference: %v", caseNo, err)
		}
		got, err := Ground(q, db, 0)
		if err != nil {
			t.Fatalf("case %d: %v", caseNo, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("case %d: %d groundings, want %d", caseNo, len(got), len(ref))
		}
		for i, g := range got {
			r := ref[i]
			if !reflect.DeepEqual(g.Head, r.Head) || !reflect.DeepEqual(g.Post, r.Post) || !reflect.DeepEqual(g.Val, r.Val) {
				t.Fatalf("case %d grounding %d: %+v, want %+v", caseNo, i, g, r)
			}
			if want := r.keys(); !reflect.DeepEqual(g.atomKeys, want) { // the reference carries none: recomputed
				t.Fatalf("case %d grounding %d: keys %q, want %q", caseNo, i, g.atomKeys, want)
			}
			for j, a := range append(append([]GroundAtom{}, g.Head...), g.Post...) {
				if g.atomKeys[j] != a.Key() {
					t.Fatalf("case %d grounding %d atom %d: key %q, want %q", caseNo, i, j, g.atomKeys[j], a.Key())
				}
			}
		}
	}
}

// decodeGroundings round-trips groundings through JSON, as a cross-shard
// offer carries them: the decoded groundings carry no keys.
func decodeGroundings(t *testing.T, gs []*Grounding) []*Grounding {
	t.Helper()
	buf, err := json.Marshal(gs)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Grounding
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEvaluateSharedGroundingsConcurrently evaluates the same cached
// groundings from several goroutines at once, as runs sharing the engine's
// grounding cache do, with half of the queries' groundings decoded from
// JSON (keys computed on use). Every round must agree with a fresh
// evaluation; under -race this also checks that no round writes a shared
// grounding.
func TestEvaluateSharedGroundingsConcurrently(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		pending := randomPendingSet(rand.New(rand.NewSource(seed)))
		want := Evaluate(pending, EvalOptions{})
		cached := make([]Pending, len(pending))
		for i, p := range pending {
			gs := want.Groundings[p.ID]
			if i%2 == 1 {
				gs = decodeGroundings(t, gs)
			}
			cached[i] = Pending{ID: p.ID, Query: p.Query, Cached: gs, HasCached: true}
		}
		var wg sync.WaitGroup
		results := make([]*Result, 4)
		for w := range results {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w] = Evaluate(cached, EvalOptions{})
			}(w)
		}
		wg.Wait()
		for w, got := range results {
			if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.Partners, want.Partners) || got.Solve != want.Solve {
				t.Fatalf("seed %d goroutine %d: shared-groundings round diverged\n got  %+v %v %+v\n want %+v %v %+v",
					seed, w, got.Answers, got.Partners, got.Solve, want.Answers, want.Partners, want.Solve)
			}
		}
	}
}
