package main

import (
	"fmt"
	"sort"
)

// pairRec is one entangled pair the benchmark submitted.
type pairRec struct {
	a, b, dest string
	// committed: both partners reported COMMITTED.
	committed bool
}

// booking is one Bookings row as read back after the run.
type booking struct {
	shard int
	fno   int64
}

// checkPairs verifies the bookings the program holds against the pairs
// that were submitted and returns one line per violation:
//   - a committed pair has exactly one booking per partner, both on the
//     same flight, and that flight flies to the pair's destination;
//   - a pair that did not commit booked nothing (no half-committed pair);
//   - a dormant (partnerless) transaction booked nothing.
//
// With home non-nil each booking must also sit on its owner's home shard.
func checkPairs(pairs []pairRec, books map[string][]booking, destOf map[int64]string,
	dormant []string, home func(string) int) []string {
	var bad []string
	for _, p := range pairs {
		ba, bb := books[p.a], books[p.b]
		if !p.committed {
			if len(ba)+len(bb) != 0 {
				bad = append(bad, fmt.Sprintf("pair %s/%s did not commit but holds %d+%d bookings", p.a, p.b, len(ba), len(bb)))
			}
			continue
		}
		if len(ba) != 1 || len(bb) != 1 {
			bad = append(bad, fmt.Sprintf("committed pair %s/%s holds %d+%d bookings, want 1+1", p.a, p.b, len(ba), len(bb)))
			continue
		}
		if ba[0].fno != bb[0].fno {
			bad = append(bad, fmt.Sprintf("pair %s/%s booked different flights %d and %d", p.a, p.b, ba[0].fno, bb[0].fno))
		}
		if d := destOf[ba[0].fno]; d != p.dest {
			bad = append(bad, fmt.Sprintf("pair %s/%s booked flight %d to %q, want %q", p.a, p.b, ba[0].fno, d, p.dest))
		}
		if home != nil {
			for _, m := range []struct {
				name string
				b    booking
			}{{p.a, ba[0]}, {p.b, bb[0]}} {
				if h := home(m.name); m.b.shard != h {
					bad = append(bad, fmt.Sprintf("booking of %s on shard %d, home is %d", m.name, m.b.shard, h))
				}
			}
		}
	}
	for _, d := range dormant {
		if n := len(books[d]); n != 0 {
			bad = append(bad, fmt.Sprintf("dormant transaction %s booked %d flights", d, n))
		}
	}
	return bad
}

// checkWrites verifies that every acknowledged write is present exactly
// once with the value that was acknowledged.
func checkWrites(acked map[int64]string, got map[int64][]string) []string {
	keys := make([]int64, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var bad []string
	for _, k := range keys {
		vs := got[k]
		switch {
		case len(vs) == 0:
			bad = append(bad, fmt.Sprintf("acknowledged write k=%d lost", k))
		case len(vs) > 1:
			bad = append(bad, fmt.Sprintf("acknowledged write k=%d present %d times", k, len(vs)))
		case vs[0] != acked[k]:
			bad = append(bad, fmt.Sprintf("acknowledged write k=%d reads %q, want %q", k, vs[0], acked[k]))
		}
	}
	return bad
}
