package main

import (
	"strings"
	"testing"
)

var testDest = map[int64]string{100: "D00", 101: "D00", 102: "D01"}

func TestCheckPairsAcceptsConsistentBookings(t *testing.T) {
	pairs := []pairRec{{a: "a1", b: "b1", dest: "D00", committed: true}, {a: "a2", b: "b2", dest: "D01"}}
	books := map[string][]booking{"a1": {{0, 101}}, "b1": {{1, 101}}}
	home := func(n string) int {
		if strings.HasPrefix(n, "a") {
			return 0
		}
		return 1
	}
	if bad := checkPairs(pairs, books, testDest, []string{"ghost"}, home); len(bad) != 0 {
		t.Fatalf("consistent bookings flagged: %v", bad)
	}
}

// TestCheckPairsFlagsMismatches is the negative control: every kind of
// wrong booking set must be reported.
func TestCheckPairsFlagsMismatches(t *testing.T) {
	for _, c := range []struct {
		name  string
		pair  pairRec
		books map[string][]booking
		want  string
	}{
		{"different flights", pairRec{a: "a", b: "b", dest: "D00", committed: true},
			map[string][]booking{"a": {{0, 100}}, "b": {{0, 101}}}, "different flights"},
		{"wrong destination", pairRec{a: "a", b: "b", dest: "D00", committed: true},
			map[string][]booking{"a": {{0, 102}}, "b": {{0, 102}}}, "want \"D00\""},
		{"lost partner booking", pairRec{a: "a", b: "b", dest: "D00", committed: true},
			map[string][]booking{"a": {{0, 100}}}, "1+0 bookings"},
		{"half-committed pair", pairRec{a: "a", b: "b", dest: "D00"},
			map[string][]booking{"a": {{0, 100}}}, "did not commit"},
	} {
		bad := checkPairs([]pairRec{c.pair}, c.books, testDest, nil, nil)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), c.want) {
			t.Errorf("%s: got %v, want a violation mentioning %q", c.name, bad, c.want)
		}
	}
	bad := checkPairs(nil, map[string][]booking{"ghost": {{0, 100}}}, testDest, []string{"ghost"}, nil)
	if len(bad) != 1 {
		t.Errorf("a booking by a dormant transaction was not flagged: %v", bad)
	}
	p := pairRec{a: "a", b: "b", dest: "D00", committed: true}
	bad = checkPairs([]pairRec{p}, map[string][]booking{"a": {{1, 100}}, "b": {{1, 100}}}, testDest, nil,
		func(string) int { return 0 })
	if len(bad) != 2 {
		t.Errorf("bookings on the wrong shard were not flagged: %v", bad)
	}
}

// TestCheckWritesFlagsLostWrite is the negative control for durability:
// a lost, a changed and a duplicated acknowledged write are all reported.
func TestCheckWritesFlagsLostWrite(t *testing.T) {
	acked := map[int64]string{1: "x", 2: "y", 3: "z", 4: "w"}
	got := map[int64][]string{1: {"x"}, 3: {"other"}, 4: {"w", "w"}}
	bad := checkWrites(acked, got)
	if len(bad) != 3 {
		t.Fatalf("got %d violations, want 3: %v", len(bad), bad)
	}
	for i, want := range []string{"k=2 lost", "k=3 reads", "k=4 present 2 times"} {
		if !strings.Contains(bad[i], want) {
			t.Errorf("violation %d = %q, want %q", i, bad[i], want)
		}
	}
	if bad := checkWrites(acked, map[int64][]string{1: {"x"}, 2: {"y"}, 3: {"z"}, 4: {"w"}}); len(bad) != 0 {
		t.Errorf("intact writes flagged: %v", bad)
	}
}
