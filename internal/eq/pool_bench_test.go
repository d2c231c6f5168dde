package eq

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// Dormant-pool round: the shape of the system benchmark's pool workload,
// where every scheduling run re-evaluates 100 partnerless booking queries
// (each waiting for a partner that never comes) plus the one pair that
// commits. Each query scans the Flights table and keeps the rows of its
// destination.

// bookingQuery is the IR of
//
//	SELECT 'me', fno AS @fno INTO ANSWER R
//	WHERE fno IN (SELECT fno FROM Flights WHERE dest='dest')
//	  AND ('them', fno) IN ANSWER R CHOOSE 1
func bookingQuery(me, them, dest string) *Query {
	return &Query{
		Head:   []Atom{NewAtom("R", CStr(me), V("fno"))},
		Post:   []Atom{NewAtom("R", CStr(them), V("fno"))},
		Body:   []Atom{NewAtom("Flights", V("fno"), V("dest"))},
		Where:  []Constraint{{Left: V("dest"), Op: OpEq, Right: CStr(dest)}},
		Bind:   []string{"fno"},
		Choose: 1,
	}
}

// flightsTable returns n flights spread round-robin over ndest
// destinations D00, D01, ...
func flightsTable(n, ndest int) MapReader {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(100 + i)), types.Str(fmt.Sprintf("D%02d", i%ndest))}
	}
	return MapReader{"Flights": rows}
}

// dormantPoolRound is one run's pending set: 100 dormant queries over 100
// flights and 10 destinations, then a pair on D00.
func dormantPoolRound() []Pending {
	db := flightsTable(100, 10)
	var pending []Pending
	for i := 0; i < 100; i++ {
		q := bookingQuery(fmt.Sprintf("ghost%03d", i), fmt.Sprintf("nobody%03d", i), fmt.Sprintf("D%02d", i%10))
		pending = append(pending, Pending{ID: i, Query: q, Reader: db})
	}
	pending = append(pending,
		Pending{ID: 100, Query: bookingQuery("a", "b", "D00"), Reader: db},
		Pending{ID: 101, Query: bookingQuery("b", "a", "D00"), Reader: db},
	)
	return pending
}

// BenchmarkEvaluateDormantPool measures one evaluation round of the
// dormant pool: grounding (10,200 rows scanned, 1,020 groundings), the
// coordinating-set search, and outcome classification.
func BenchmarkEvaluateDormantPool(b *testing.B) {
	pending := dormantPoolRound()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Evaluate(pending, EvalOptions{})
		if a := res.Answers[100]; a.Status != Answered {
			b.Fatalf("pair member: %v", a.Status)
		}
	}
}

func TestEvaluateDormantPoolRound(t *testing.T) {
	res := Evaluate(dormantPoolRound(), EvalOptions{})
	for id := 0; id < 100; id++ {
		if st := res.Answers[id].Status; st != NoPartner {
			t.Fatalf("dormant query %d: %v, want NO-PARTNER", id, st)
		}
		if n := len(res.Groundings[id]); n != 10 {
			t.Fatalf("dormant query %d: %d groundings, want 10", id, n)
		}
	}
	a := res.Answers[100]
	if a.Status != Answered || !a.Bindings["fno"].Equal(types.Int(100)) {
		t.Fatalf("pair member: %+v", a)
	}
	if got := res.Partners[100]; len(got) != 1 || got[0] != 101 {
		t.Fatalf("partners of 100: %v, want [101]", got)
	}
	// 100 one-query components and the pair.
	if res.Solve.Components != 101 || res.Solve.Answered != 2 {
		t.Fatalf("solve stats: %+v", res.Solve)
	}
}

// TestGroundAllocsPerGroundingNotPerRow: the join allocates for the
// groundings it emits, never for the rows it scans and rejects. Grounding
// one booking query over 100 flights and over 1,000 flights, with the same
// 10 matching rows, allocates the same amount.
func TestGroundAllocsPerGroundingNotPerRow(t *testing.T) {
	small := flightsTable(100, 10)
	big := flightsTable(100, 10)
	for i := 100; i < 1000; i++ {
		big["Flights"] = append(big["Flights"], types.Tuple{types.Int(int64(100 + i)), types.Str("elsewhere")})
	}
	q := bookingQuery("me", "you", "D03")
	allocs := func(db MapReader) float64 {
		return testing.AllocsPerRun(50, func() {
			gs, err := Ground(q, db, 0)
			if err != nil || len(gs) != 10 {
				t.Fatalf("groundings: %d, %v", len(gs), err)
			}
		})
	}
	if a, b := allocs(small), allocs(big); a != b {
		t.Fatalf("grounding over 100 rows allocates %v, over 1000 rows %v: the join allocates per row", a, b)
	}
}
