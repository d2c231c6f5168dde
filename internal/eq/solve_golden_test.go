package eq

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// solveGoldenPath pins the solver's choices and work on fixed-seed random
// instances. The file was produced by the string-keyed solver; the
// interned solver must reproduce every line exactly. Equal Steps on every
// case is the evidence that the search visits the same nodes in the same
// order, not merely that it finds an equally large answer.
const solveGoldenPath = "testdata/solve_golden.txt"

// solveGoldenLines renders, for each fixed-seed instance, the chosen
// groundings and SolveStats of three runs: the exact search at the default
// budget, the greedy closure alone (budget -1), and a budget of 3 nodes,
// which exhausts on most multi-query components and exercises the greedy
// fallback after a partial exact search.
func solveGoldenLines(t testing.TB) []string {
	var lines []string
	gen := func(name string, seed int64, iters int, mk func(*rand.Rand) ([]*Query, MapReader)) {
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < iters; iter++ {
			queries, db := mk(rng)
			groundings := make([][]*Grounding, len(queries))
			for i, q := range queries {
				gs, err := Ground(q, db, 0)
				if err != nil {
					t.Fatal(err)
				}
				groundings[i] = gs
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%s/%d", name, iter)
			for _, budget := range []int{0, -1, 3} {
				chosen, st := SolveBudget(groundings, budget)
				fmt.Fprintf(&b, " %v %d/%d/%d/%t", chosen, st.Steps, st.Components, st.Answered, st.Exhausted)
			}
			lines = append(lines, b.String())
		}
	}
	gen("structures", 2024, 500, randomQueries)
	gen("competing", 42, 500, randomCompetingQueries)
	return lines
}

func TestSolveGolden(t *testing.T) {
	f, err := os.Open(solveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := solveGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d golden cases, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("case %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
