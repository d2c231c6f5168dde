package storage

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// hashIndex is an equality index over one or more columns of a table. With
// version chains an index entry means "some stored version of this row has
// this key" — entries are added when versions are installed and removed
// only when rollback or GC drops the last version carrying the key. Lookups
// therefore filter candidates through the reader's visibility check. The
// index is maintained while the table mutex is held, so it needs no locking
// of its own.
//
// Most keys of a typical index name a single row (a booking's name, a
// unique column), so a key's only row is kept in one, with no bucket
// slice; a key moves to many when a second row joins it, and back when
// it is down to one. A key is in at most one of the two maps.
type hashIndex struct {
	name    string
	columns []int // column positions in the table schema
	one     map[string]RowID
	many    map[string][]RowID
	// buf is the key scratch of the write paths (insert, remove), which
	// run under the table's write lock; read paths key into their own
	// stack buffers.
	buf []byte
}

func newHashIndex(name string, columns []int) *hashIndex {
	ix := &hashIndex{name: name, columns: columns}
	ix.clear()
	return ix
}

// lookup returns the ids indexed under key. A lone id is returned in
// single's backing array, so a caller passing a stack array allocates
// nothing.
func (ix *hashIndex) lookup(key []byte, single *[1]RowID) []RowID {
	if id, ok := ix.one[string(key)]; ok {
		single[0] = id
		return single[:]
	}
	return ix.many[string(key)]
}

// appendKey appends the bucket key of row (its indexed columns' Tuple key
// bytes) to dst.
func (ix *hashIndex) appendKey(dst []byte, row types.Tuple) []byte {
	for _, c := range ix.columns {
		dst = row[c].AppendKey(dst)
	}
	return dst
}

// appendProbeKey appends the bucket key of an equality probe whose column
// positions cols (in any order) equal vals, in the index's own column
// order. The caller has checked that cols covers the index's columns.
func (ix *hashIndex) appendProbeKey(dst []byte, cols []int, vals []types.Value) []byte {
	for _, c := range ix.columns {
		for j, probe := range cols {
			if probe == c {
				dst = vals[j].AppendKey(dst)
				break
			}
		}
	}
	return dst
}

// keyFor returns row's bucket key as a string, for callers that keep it.
func (ix *hashIndex) keyFor(row types.Tuple) string {
	ix.buf = ix.appendKey(ix.buf[:0], row)
	return string(ix.buf)
}

// insert records id under the row's key; a row id appears at most once
// per bucket no matter how many of its versions share the key. fresh
// means the caller knows this is the row's first version, so the dedup
// scan (O(bucket length)) is skipped — bulk loads stay linear.
func (ix *hashIndex) insert(id RowID, row types.Tuple, fresh bool) {
	ix.buf = ix.appendKey(ix.buf[:0], row)
	if ids, ok := ix.many[string(ix.buf)]; ok {
		if !fresh {
			for _, got := range ids {
				if got == id {
					return
				}
			}
		}
		ix.many[string(ix.buf)] = append(ids, id)
		return
	}
	if first, ok := ix.one[string(ix.buf)]; ok {
		if first != id {
			key := string(ix.buf)
			delete(ix.one, key)
			ix.many[key] = []RowID{first, id}
		}
		return
	}
	ix.one[string(ix.buf)] = id
}

func (ix *hashIndex) remove(id RowID, row types.Tuple) {
	ix.buf = ix.appendKey(ix.buf[:0], row)
	if got, ok := ix.one[string(ix.buf)]; ok {
		if got == id {
			delete(ix.one, string(ix.buf))
		}
		return
	}
	ids, ok := ix.many[string(ix.buf)]
	if !ok {
		return
	}
	for i, got := range ids {
		if got == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	switch len(ids) {
	case 0:
		delete(ix.many, string(ix.buf))
	case 1:
		key := string(ix.buf)
		delete(ix.many, key)
		ix.one[key] = ids[0]
	default:
		ix.many[string(ix.buf)] = ids
	}
}

func (ix *hashIndex) clear() {
	ix.one = make(map[string]RowID)
	ix.many = make(map[string][]RowID)
}

// CreateIndex builds an equality index named name over the given columns.
// The index is populated from existing versions.
func (t *Table) CreateIndex(name string, columns ...string) error {
	cols := make([]int, 0, len(columns))
	for _, c := range columns {
		i := t.schema.Index(c)
		if i < 0 {
			return fmt.Errorf("storage: index %s: no column %q in table %s", name, c, t.name)
		}
		cols = append(cols, i)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[name]; ok {
		return fmt.Errorf("storage: index %s already exists on %s", name, t.name)
	}
	ix := newHashIndex(name, cols)
	for i, vs := range t.rows {
		id := RowID(i)
		first := true
		for _, v := range vs {
			if v.row != nil {
				ix.insert(id, v.row, first)
				first = false
			}
		}
	}
	t.indexes[name] = ix
	return nil
}

// HasIndexOn reports whether an equality index exists whose leading columns
// are exactly the given columns (order-sensitive).
func (t *Table) HasIndexOn(columns ...string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.findIndex(columns) != nil
}

func (t *Table) findIndex(columns []string) *hashIndex {
	want := make([]int, 0, len(columns))
	for _, c := range columns {
		i := t.schema.Index(c)
		if i < 0 {
			return nil
		}
		want = append(want, i)
	}
	for _, ix := range t.indexes {
		if len(ix.columns) != len(want) {
			continue
		}
		match := true
		for i := range want {
			if ix.columns[i] != want[i] {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// IndexInfo describes an index for catalog inspection and WAL replay.
type IndexInfo struct {
	Name    string
	Columns []string
}

// Indexes returns metadata for every index on the table, sorted by name.
func (t *Table) Indexes() []IndexInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]IndexInfo, 0, len(t.indexes))
	for name, ix := range t.indexes {
		cols := make([]string, len(ix.columns))
		for i, c := range ix.columns {
			cols[i] = t.schema.Columns[c].Name
		}
		out = append(out, IndexInfo{Name: name, Columns: cols})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// lookupResolved returns the (RowID, visible row) pairs whose visible row
// (per resolve) equals key on the given columns, using an index for the
// candidate set when one matches. Results are in ascending RowID order for
// determinism; rows are shared references into the chains — callers clone
// before releasing the lock. Caller holds t.mu (read).
func (t *Table) lookupResolved(columns []string, key types.Tuple, resolve func([]version) (types.Tuple, bool)) ([]RowID, []types.Tuple, error) {
	if len(columns) != len(key) {
		return nil, nil, fmt.Errorf("storage: lookup on %s: %d columns vs %d key values", t.name, len(columns), len(key))
	}
	cols := make([]int, len(columns))
	for i, c := range columns {
		idx := t.schema.Index(c)
		if idx < 0 {
			return nil, nil, fmt.Errorf("storage: lookup on %s: no column %q", t.name, c)
		}
		cols[i] = idx
	}
	match := func(row types.Tuple) bool {
		for i, c := range cols {
			if !row[c].Equal(key[i]) {
				return false
			}
		}
		return true
	}
	var ids []RowID
	var rows []types.Tuple
	add := func(id RowID, vs []version) {
		if row, ok := resolve(vs); ok && match(row) {
			ids = append(ids, id)
			rows = append(rows, row)
		}
	}
	if ix := t.findIndex(columns); ix != nil {
		// Candidates from the bucket may carry the key only in an invisible
		// version; re-check against the visible row.
		var kb [64]byte
		var single [1]RowID
		for _, id := range ix.lookup(key.AppendKey(kb[:0]), &single) {
			add(id, t.chain(id))
		}
	} else {
		for id, vs := range t.rows {
			add(RowID(id), vs)
		}
	}
	sort.Sort(&idRowSort{ids: ids, rows: rows})
	return ids, rows, nil
}

// idRowSort sorts parallel (id, row) slices by RowID.
type idRowSort struct {
	ids  []RowID
	rows []types.Tuple
}

func (s *idRowSort) Len() int           { return len(s.ids) }
func (s *idRowSort) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *idRowSort) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// findIndexByCols returns an index whose column-position set equals cols
// (order-insensitive: a hash index answers an equality probe over its
// column set no matter how the probe spells the columns). Caller holds
// t.mu (read).
func (t *Table) findIndexByCols(cols []int) *hashIndex {
	for _, ix := range t.indexes {
		if len(ix.columns) != len(cols) {
			continue
		}
		match := true
		for _, c := range ix.columns {
			found := false
			for _, want := range cols {
				if c == want {
					found = true
					break
				}
			}
			if !found {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// HasIndexForCols reports whether an equality probe over the given column
// positions (any order, no duplicates) is index-accelerated. The grounding
// planner uses it to decide whether an equality-bound atom probes or scans.
func (t *Table) HasIndexForCols(cols []int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.findIndexByCols(cols) != nil
}

// MatchAsOf returns the rows visible to snap whose column positions cols
// equal vals, cloned, in RowID order — the visibility-aware indexed lookup
// the grounding hot path probes instead of materializing the whole table.
// When an index covers the column set the candidates come from its bucket;
// otherwise every chain is filtered (the scan fallback), so the result is
// identical either way.
func (t *Table) MatchAsOf(snap Snapshot, cols []int, vals []types.Value) ([]types.Tuple, error) {
	if len(cols) != len(vals) {
		return nil, fmt.Errorf("storage: match on %s: %d columns vs %d values", t.name, len(cols), len(vals))
	}
	width := len(t.schema.Columns)
	for _, c := range cols {
		if c < 0 || c >= width {
			return nil, fmt.Errorf("storage: match on %s: column position %d out of range", t.name, c)
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	match := func(row types.Tuple) bool {
		for i, c := range cols {
			if !row[c].Equal(vals[i]) {
				return false
			}
		}
		return true
	}
	var ids []RowID
	var rows []types.Tuple
	add := func(id RowID, vs []version) {
		if row, ok := visibleAt(vs, snap); ok && match(row) {
			ids = append(ids, id)
			rows = append(rows, row)
		}
	}
	if ix := t.findIndexByCols(cols); ix != nil {
		// Build the bucket key in the index's own column order; bucket
		// candidates may carry the key only in an invisible version, so the
		// visible row is re-checked by match.
		var kb [64]byte
		var single [1]RowID
		for _, id := range ix.lookup(ix.appendProbeKey(kb[:0], cols, vals), &single) {
			add(id, t.chain(id))
		}
	} else {
		for id, vs := range t.rows {
			add(RowID(id), vs)
		}
	}
	sort.Sort(&idRowSort{ids: ids, rows: rows})
	for i, row := range rows {
		rows[i] = row.Clone()
	}
	return rows, nil
}

// LookupTx returns the RowIDs of rows whose given columns equal key in
// reader's current-state view.
func (t *Table) LookupTx(reader uint64, columns []string, key types.Tuple) ([]RowID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids, _, err := t.lookupResolved(columns, key, func(vs []version) (types.Tuple, bool) {
		return latestVisible(vs, reader)
	})
	return ids, err
}

// Lookup returns the RowIDs of rows whose given columns equal key in the
// latest committed state.
func (t *Table) Lookup(columns []string, key types.Tuple) ([]RowID, error) {
	return t.LookupTx(0, columns, key)
}

// LookupAsOf returns the RowIDs of rows whose given columns equal key as
// seen by snap — the lock-free indexed read.
func (t *Table) LookupAsOf(snap Snapshot, columns []string, key types.Tuple) ([]RowID, error) {
	ids, _, err := t.LookupRowsAsOf(snap, columns, key)
	return ids, err
}

// LookupRowsAsOf is LookupAsOf returning the visible rows as well (cloned),
// resolved in the same single pass under one lock acquisition — the hot
// path of snapshot-isolated point reads.
func (t *Table) LookupRowsAsOf(snap Snapshot, columns []string, key types.Tuple) ([]RowID, []types.Tuple, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids, rows, err := t.lookupResolved(columns, key, func(vs []version) (types.Tuple, bool) {
		return visibleAt(vs, snap)
	})
	if err != nil {
		return nil, nil, err
	}
	for i, row := range rows {
		rows[i] = row.Clone()
	}
	return ids, rows, nil
}
