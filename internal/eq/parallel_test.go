package eq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/types"
)

// randomPendingSet builds a seeded mix of coordination structures over a
// shared reader: entangled pairs, one cycle, and a few partner-less
// queries, with enough matching rows that every query has several candidate
// groundings — so Solve has real choices to make and any order-sensitivity
// in the grounding stage would show up as a different chosen grounding.
func randomPendingSet(rng *rand.Rand) []Pending {
	nFlights := 3 + rng.Intn(5)
	flights := make([]types.Tuple, nFlights)
	for i := range flights {
		flights[i] = types.Tuple{types.Int(int64(100 + i)), types.Str("LA")}
	}
	slots := []types.Tuple{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}}
	reader := MapReader{"Flights": flights, "Slots": slots}

	var pending []Pending
	id := 0
	mkPair := func(me, them string) *Query {
		return &Query{
			Head:   []Atom{NewAtom("R", CStr(me), V("f"))},
			Post:   []Atom{NewAtom("R", CStr(them), V("f"))},
			Body:   []Atom{NewAtom("Flights", V("f"), V("d"))},
			Where:  []Constraint{{Left: V("d"), Op: OpEq, Right: CStr("LA")}},
			Choose: 1,
		}
	}
	pairs := 2 + rng.Intn(4)
	for p := 0; p < pairs; p++ {
		a := fmt.Sprintf("a%d", p)
		b := fmt.Sprintf("b%d", p)
		pending = append(pending,
			Pending{ID: id, Query: mkPair(a, b), Reader: reader},
			Pending{ID: id + 1, Query: mkPair(b, a), Reader: reader},
		)
		id += 2
	}
	k := 3 + rng.Intn(3)
	for i := 0; i < k; i++ {
		me := fmt.Sprintf("c%d", i)
		next := fmt.Sprintf("c%d", (i+1)%k)
		pending = append(pending, Pending{ID: id, Query: &Query{
			Head:   []Atom{NewAtom("R", CStr(me), V("v"))},
			Post:   []Atom{NewAtom("R", CStr(next), V("v"))},
			Body:   []Atom{NewAtom("Slots", V("v"))},
			Choose: 1,
		}, Reader: reader})
		id++
	}
	// Partner-less query: its postcondition names a participant nobody
	// produces, so it must come back NoPartner in both modes.
	pending = append(pending, Pending{ID: id, Query: mkPair("loner", "nobody"), Reader: reader})
	return pending
}

// TestEvaluateParallelDeterminism is the determinism regression test for
// the concurrent grounding pipeline: for many seeded pending sets, a
// parallel evaluation must make byte-identical eq.Solve choices (answers,
// tuples, bindings, partner sets) to the serial one.
func TestEvaluateParallelDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pending := randomPendingSet(rng)
		serial := Evaluate(pending, EvalOptions{GroundWorkers: 1})
		serial.GroundDur, serial.SolveDur = 0, 0
		for _, workers := range []int{2, 4, 16} {
			parallel := Evaluate(pending, EvalOptions{GroundWorkers: workers})
			// Wall-clock round timing is the one legitimately schedule-
			// dependent field; everything else must be byte-identical.
			parallel.GroundDur, parallel.SolveDur = 0, 0
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("seed %d workers %d: parallel evaluation diverged from serial\nserial:   %+v\nparallel: %+v",
					seed, workers, serial, parallel)
			}
		}
	}
}

// TestGroundAllParallelMatchesSerial pins the grounding stage itself:
// identical grounding lists (content and order) regardless of pool size.
func TestGroundAllParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10; iter++ {
		pending := randomPendingSet(rng)
		serialG, serialE := GroundAll(pending, EvalOptions{GroundWorkers: 1})
		parG, parE := GroundAll(pending, EvalOptions{GroundWorkers: 8})
		if !reflect.DeepEqual(serialG, parG) {
			t.Fatalf("iter %d: groundings diverged", iter)
		}
		if !reflect.DeepEqual(serialE, parE) {
			t.Fatalf("iter %d: grounding errors diverged: %v vs %v", iter, serialE, parE)
		}
	}
}

// TestGroundAllLatencyOverlaps checks that a delay armed on the eq.ground
// point overlaps in the pool: 8 queries at 10ms each must take ~80ms
// serially but near 10ms with 8 workers.
func TestGroundAllLatencyOverlaps(t *testing.T) {
	reader := MapReader{"Slots": {{types.Int(1)}}}
	var pending []Pending
	for i := 0; i < 8; i++ {
		pending = append(pending, Pending{ID: i, Query: &Query{
			Head: []Atom{NewAtom("R", CStr(fmt.Sprintf("u%d", i)), V("v"))},
			Body: []Atom{NewAtom("Slots", V("v"))},
		}, Reader: reader})
	}
	faults := fault.NewRegistry(1)
	opts := EvalOptions{GroundPoint: faults.Enable("eq.ground", fault.Trigger{},
		fault.Action{Kind: fault.KindDelay, Delay: 10 * time.Millisecond})}

	start := time.Now()
	opts.GroundWorkers = 1
	GroundAll(pending, opts)
	serial := time.Since(start)

	start = time.Now()
	opts.GroundWorkers = 8
	GroundAll(pending, opts)
	parallel := time.Since(start)

	if serial < 70*time.Millisecond {
		t.Fatalf("serial grounding took %v, expected ~80ms of summed latency", serial)
	}
	if parallel > serial/2 {
		t.Fatalf("parallel grounding took %v vs serial %v; round trips did not overlap", parallel, serial)
	}
}

// competingPendingSet builds a pending set where coordination structures
// COMPETE — one spoke contested by a pair hub and a 3-chain, plus a
// two-hub tie — so the exact solver has real backtracking to do and any
// schedule-sensitivity in its choices would surface as different winners.
func competingPendingSet() []Pending {
	reader := contestReader()
	queries := append(competingChainQueries(), // contested spoke + pair hub + 3-chain
		contestQuery("t", "bid", ""),   // tied spoke
		contestQuery("bid", "t", "d1"), // tie hub 1
		contestQuery("bid", "t", "d2"), // tie hub 2
	)
	pending := make([]Pending, len(queries))
	for i, qu := range queries {
		pending[i] = Pending{ID: i, Query: qu, Reader: reader}
	}
	return pending
}

// TestEvaluateCompetingDeterministicUnderSchedules runs the competing
// pending set through the parallel grounding pipeline many times (the race
// suite shuffles goroutine schedules) and demands the exact solver pick
// the identical coordinating set every time: the 3-chain over the pair,
// and the earlier hub in the tie.
func TestEvaluateCompetingDeterministicUnderSchedules(t *testing.T) {
	var ref *Result
	for iter := 0; iter < 60; iter++ {
		pending := competingPendingSet()
		res := Evaluate(pending, EvalOptions{GroundWorkers: 8})
		if res.Solve.Answered != 5 {
			t.Fatalf("iteration %d: answered %d, want 5 (chain of 3 + tie pair)", iter, res.Solve.Answered)
		}
		for _, id := range []int{0, 2, 3, 4, 5} {
			if res.Answers[id].Status != Answered {
				t.Fatalf("iteration %d: query %d status %v, want ANSWERED", iter, id, res.Answers[id].Status)
			}
		}
		for _, id := range []int{1, 6} {
			if res.Answers[id].Status != EmptyAnswer {
				t.Fatalf("iteration %d: losing query %d status %v, want EMPTY", iter, id, res.Answers[id].Status)
			}
		}
		if ref == nil {
			ref = res
			continue
		}
		for id := range ref.Answers {
			if !reflect.DeepEqual(ref.Answers[id], res.Answers[id]) {
				t.Fatalf("iteration %d: answer for query %d diverged across schedules", iter, id)
			}
			if !reflect.DeepEqual(ref.Partners[id], res.Partners[id]) {
				t.Fatalf("iteration %d: partners for query %d diverged across schedules", iter, id)
			}
		}
	}
}
