package storage

import (
	"testing"

	"repro/internal/types"
)

func kv(id int64, town string) types.Tuple {
	return types.Tuple{types.Int(id), types.Str(town)}
}

func townSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "town", Type: types.KindString},
	)
}

func TestUncommittedVersionInvisibleUntilStamped(t *testing.T) {
	tbl := NewTable("T", townSchema())
	id, err := tbl.InsertTx(7, kv(1, "SFO"))
	if err != nil {
		t.Fatal(err)
	}
	// Invisible to committed-state readers and to snapshots...
	if _, ok := tbl.Get(id); ok {
		t.Error("uncommitted insert visible to committed-state reader")
	}
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 99}, id); ok {
		t.Error("uncommitted insert visible to foreign snapshot")
	}
	// ...but visible to its own writer, with and without a snapshot.
	if _, ok := tbl.GetTx(7, id); !ok {
		t.Error("writer cannot read its own uncommitted insert")
	}
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 0, Self: 7}, id); !ok {
		t.Error("writer's snapshot hides its own uncommitted insert")
	}
	tbl.Stamp(7, id, 5)
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 4}, id); ok {
		t.Error("commit at CSN 5 visible to snapshot at 4")
	}
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 5}, id); !ok {
		t.Error("commit at CSN 5 invisible to snapshot at 5")
	}
	if got := tbl.LastCSN(); got != 5 {
		t.Errorf("LastCSN = %d, want 5", got)
	}
}

func TestSnapshotSeesOldVersionAfterUpdateAndDelete(t *testing.T) {
	tbl := NewTable("T", townSchema())
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	if _, err := tbl.UpdateTx(2, id, kv(1, "NYC")); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(2, id, 2)
	old, ok := tbl.GetAsOf(Snapshot{CSN: 1}, id)
	if !ok || old[1].Str64() != "SFO" {
		t.Fatalf("snapshot at 1 sees %v, want SFO", old)
	}
	cur, ok := tbl.GetAsOf(Snapshot{CSN: 2}, id)
	if !ok || cur[1].Str64() != "NYC" {
		t.Fatalf("snapshot at 2 sees %v, want NYC", cur)
	}
	if _, err := tbl.DeleteTx(3, id); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(3, id, 3)
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 2}, id); !ok {
		t.Error("snapshot at 2 lost the row after a later delete")
	}
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 3}, id); ok {
		t.Error("snapshot at 3 sees a deleted row")
	}
	if csn, ok := tbl.CommittedCSN(id); !ok || csn != 3 {
		t.Errorf("CommittedCSN = %d, %v, want 3", csn, ok)
	}
}

func TestRollbackRemovesUncommittedVersions(t *testing.T) {
	tbl := NewTable("T", townSchema())
	tbl.CreateIndex("by_town", "town")
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	if _, err := tbl.UpdateTx(2, id, kv(1, "NYC")); err != nil {
		t.Fatal(err)
	}
	tbl.Rollback(2, id)
	row, ok := tbl.Get(id)
	if !ok || row[1].Str64() != "SFO" {
		t.Fatalf("after rollback row = %v, want SFO", row)
	}
	if ids, _ := tbl.Lookup([]string{"town"}, types.Tuple{types.Str("NYC")}); len(ids) != 0 {
		t.Errorf("rolled-back key still matches: %v", ids)
	}
	// Rolling back an uncommitted insert removes the chain entirely.
	id2, _ := tbl.InsertTx(3, kv(2, "LAX"))
	tbl.Rollback(3, id2)
	if _, ok := tbl.GetTx(3, id2); ok {
		t.Error("rolled-back insert still readable by its writer")
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
}

func TestIndexedLookupFiltersByVisibility(t *testing.T) {
	tbl := NewTable("T", townSchema())
	tbl.CreateIndex("by_town", "town")
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	if _, err := tbl.UpdateTx(2, id, kv(1, "NYC")); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(2, id, 2)
	// Old snapshot finds the row under its old key, not its new one.
	oldSnap := Snapshot{CSN: 1}
	if ids, _ := tbl.LookupAsOf(oldSnap, []string{"town"}, types.Tuple{types.Str("SFO")}); len(ids) != 1 {
		t.Errorf("old snapshot lookup(SFO) = %v, want the row", ids)
	}
	if ids, _ := tbl.LookupAsOf(oldSnap, []string{"town"}, types.Tuple{types.Str("NYC")}); len(ids) != 0 {
		t.Errorf("old snapshot lookup(NYC) = %v, want none", ids)
	}
	newSnap := Snapshot{CSN: 2}
	if ids, _ := tbl.LookupAsOf(newSnap, []string{"town"}, types.Tuple{types.Str("NYC")}); len(ids) != 1 {
		t.Errorf("new snapshot lookup(NYC) = %v, want the row", ids)
	}
	if ids, _ := tbl.LookupAsOf(newSnap, []string{"town"}, types.Tuple{types.Str("SFO")}); len(ids) != 0 {
		t.Errorf("new snapshot lookup(SFO) = %v, want none", ids)
	}
}

func TestScanAsOfIsStableAgainstLaterCommits(t *testing.T) {
	tbl := NewTable("T", townSchema())
	for i := int64(0); i < 5; i++ {
		id, _ := tbl.InsertTx(1, kv(i, "SFO"))
		tbl.Stamp(1, id, 1)
	}
	snap := Snapshot{CSN: 1}
	id, _ := tbl.InsertTx(2, kv(99, "NYC"))
	tbl.Stamp(2, id, 2)
	if got := len(tbl.AllAsOf(snap)); got != 5 {
		t.Errorf("snapshot scan sees %d rows, want 5", got)
	}
	if got := len(tbl.All()); got != 6 {
		t.Errorf("latest scan sees %d rows, want 6", got)
	}
}

func TestGCPrunesBelowWatermark(t *testing.T) {
	tbl := NewTable("T", townSchema())
	tbl.CreateIndex("by_town", "town")
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	for i, town := range []string{"NYC", "LAX", "SEA"} {
		if _, err := tbl.UpdateTx(uint64(i+2), id, kv(1, town)); err != nil {
			t.Fatal(err)
		}
		tbl.Stamp(uint64(i+2), id, uint64(i+2))
	}
	if got := tbl.VersionCount(); got != 4 {
		t.Fatalf("VersionCount = %d, want 4", got)
	}
	// Watermark 3 keeps the version at CSN 3 (the boundary a snapshot at 3
	// still reads) and everything newer.
	if pruned := tbl.GC(3); pruned != 2 {
		t.Errorf("GC pruned %d, want 2", pruned)
	}
	if row, ok := tbl.GetAsOf(Snapshot{CSN: 3}, id); !ok || row[1].Str64() != "LAX" {
		t.Errorf("boundary snapshot sees %v, want LAX", row)
	}
	if ids, _ := tbl.Lookup([]string{"town"}, types.Tuple{types.Str("SFO")}); len(ids) != 0 {
		t.Errorf("pruned key still indexed: %v", ids)
	}
	// A committed tombstone below the watermark removes the chain entirely.
	id2, _ := tbl.InsertTx(10, kv(2, "OAK"))
	tbl.Stamp(10, id2, 10)
	if _, err := tbl.DeleteTx(11, id2); err != nil {
		t.Fatal(err)
	}
	tbl.Stamp(11, id2, 11)
	tbl.GC(11)
	if _, ok := tbl.GetAsOf(Snapshot{CSN: 11}, id2); ok {
		t.Error("deleted chain still visible after GC")
	}
	if ids, _ := tbl.Lookup([]string{"town"}, types.Tuple{types.Str("OAK")}); len(ids) != 0 {
		t.Errorf("deleted chain still indexed: %v", ids)
	}
}

func TestGCRetainsUncommittedVersions(t *testing.T) {
	tbl := NewTable("T", townSchema())
	id, _ := tbl.InsertTx(1, kv(1, "SFO"))
	tbl.Stamp(1, id, 1)
	if _, err := tbl.UpdateTx(2, id, kv(1, "NYC")); err != nil {
		t.Fatal(err)
	}
	tbl.GC(100)
	if row, ok := tbl.GetTx(2, id); !ok || row[1].Str64() != "NYC" {
		t.Errorf("uncommitted version lost by GC: %v, %v", row, ok)
	}
	tbl.Stamp(2, id, 101)
	if row, ok := tbl.Get(id); !ok || row[1].Str64() != "NYC" {
		t.Errorf("stamped version after GC: %v, %v", row, ok)
	}
}

// TestIndexKeyMovesBetweenSingleAndShared walks one key through the
// index's two maps: a lone row lives in one, a second row moves the key to
// many, and rolling rows back moves it back and then drops it. Lookups see
// the same ids throughout.
func TestIndexKeyMovesBetweenSingleAndShared(t *testing.T) {
	tbl := NewTable("T", townSchema())
	if err := tbl.CreateIndex("by_town", "town"); err != nil {
		t.Fatal(err)
	}
	ix := tbl.indexes["by_town"]
	sfo := types.Tuple{types.Str("SFO")}
	state := func() (int, int) { return len(ix.one), len(ix.many) }
	lookup := func(want ...RowID) {
		t.Helper()
		got, err := tbl.LookupTx(9, []string{"town"}, sfo)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("lookup(SFO) = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lookup(SFO) = %v, want %v", got, want)
			}
		}
	}
	a, _ := tbl.InsertTx(9, kv(1, "SFO"))
	if one, many := state(); one != 1 || many != 0 {
		t.Fatalf("one row: one=%d many=%d", one, many)
	}
	lookup(a)
	b, _ := tbl.InsertTx(9, kv(2, "SFO"))
	c, _ := tbl.InsertTx(8, kv(3, "SFO"))
	if one, many := state(); one != 0 || many != 1 {
		t.Fatalf("three rows: one=%d many=%d", one, many)
	}
	tbl.Rollback(8, c)
	lookup(a, b)
	tbl.Rollback(9, b)
	if one, many := state(); one != 1 || many != 0 {
		t.Fatalf("back to one row: one=%d many=%d", one, many)
	}
	lookup(a)
	tbl.Rollback(9, a)
	if one, many := state(); one != 0 || many != 0 {
		t.Fatalf("no rows: one=%d many=%d", one, many)
	}
	lookup()
}

// TestRowsByIDWithGaps: chains are kept by RowID, so reinstating rows
// under ids past the end leaves gaps that scans skip, in RowID order, and
// a negative id is refused.
func TestRowsByIDWithGaps(t *testing.T) {
	tbl := NewTable("T", townSchema())
	for _, id := range []RowID{5, 2} {
		if err := tbl.InsertAt(id, kv(int64(id), "SFO")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.InsertAt(-1, kv(0, "SFO")); err == nil {
		t.Fatal("InsertAt(-1) succeeded")
	}
	var ids []RowID
	tbl.Scan(func(id RowID, _ types.Tuple) bool {
		ids = append(ids, id)
		return true
	})
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 5 {
		t.Fatalf("scan ids = %v, want [2 5]", ids)
	}
	if _, ok := tbl.Get(3); ok {
		t.Fatal("Get of a gap found a row")
	}
	if _, ok := tbl.Get(99); ok {
		t.Fatal("Get past the end found a row")
	}
	if id, err := tbl.Insert(kv(6, "NYC")); err != nil || id != 6 {
		t.Fatalf("next insert got id %d (%v), want 6", id, err)
	}
}
