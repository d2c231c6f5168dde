package eq

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// Streaming executor: a pull-based nested-loop-with-probe pipeline over the
// joinPlan. Each join level holds one cursor and one batch buffer; rows are
// pulled BatchRows at a time, bound into the valuation's slots, filtered by
// the level's pushed-down constraints, and only then does the next level's
// cursor open. Nothing materializes a whole relation: resident state is one
// batch per active level, so memory is O(levels x BatchRows) regardless of
// table size, and the maxGroundings cap stops the outermost pull the
// instant it is reached.
//
// Order preservation is the load-bearing invariant: for the same plan, the
// streaming executor enumerates byte-identical groundings in identical
// order to the materialized reference (GroundMaterialized), because cursors
// yield rows in exactly the order Scan/Probe return them and the
// bind-check-recurse structure is unchanged. The exact solver's tie-breaks,
// the cross-round grounding cache, and serial-vs-parallel determinism all
// lean on this.

// DefaultBatchRows is the cursor pull granularity when GroundOptions (or
// EvalOptions) leave BatchRows zero.
const DefaultBatchRows = 256

// RowCursor is the pull iterator the streaming join consumes. Next appends
// up to max rows to buf and returns the extended slice; returning buf
// unchanged means exhaustion. Returned rows may alias storage the producer
// owns and are valid only until the next call that reuses buf — the
// executor copies values out of rows and never retains or mutates them.
// Rewind resets the cursor to its first row without redoing the open.
type RowCursor interface {
	Next(buf []types.Tuple, max int) ([]types.Tuple, error)
	Rewind()
}

// CursorReader is an optional Reader extension for sources that can stream
// rows in batches instead of materializing relations. ScanCursor must
// enumerate exactly the rows Scan would return, in the same order, and
// ProbeCursor exactly the rows Probe would return — grounding through
// cursors and through slices is then observably identical, which the
// streaming ≡ materialized property test enforces.
type CursorReader interface {
	IndexedReader
	ScanCursor(table string) (RowCursor, error)
	ProbeCursor(table string, cols []int, vals []types.Value) (RowCursor, error)
}

// StreamStats accumulates streaming-pipeline accounting across grounding
// calls. Safe for concurrent use by parallel grounding workers.
type StreamStats struct {
	rows      atomic.Int64
	peakBatch atomic.Int64
}

// Rows returns the total number of rows pulled through grounding cursors.
func (s *StreamStats) Rows() int64 { return s.rows.Load() }

// PeakBatchRows returns the high-water mark of rows resident in a single
// grounding pipeline's batch buffers — the "working set" the streaming
// rewrite bounds, where the materialized path held whole relations.
func (s *StreamStats) PeakBatchRows() int64 { return s.peakBatch.Load() }

func (s *StreamStats) addRows(n int64) {
	if s != nil && n > 0 {
		s.rows.Add(n)
	}
}

func (s *StreamStats) observePeak(n int64) {
	if s == nil {
		return
	}
	for {
		cur := s.peakBatch.Load()
		if n <= cur || s.peakBatch.CompareAndSwap(cur, n) {
			return
		}
	}
}

// GroundOptions tunes one grounding enumeration.
type GroundOptions struct {
	// MaxGroundings bounds the enumeration (0 = unlimited); hitting the cap
	// terminates the pipeline immediately — no further rows are pulled.
	MaxGroundings int
	// BatchRows is the cursor pull granularity (0 = DefaultBatchRows).
	BatchRows int
	// Stats, when non-nil, accumulates rows-streamed / peak-batch accounting.
	Stats *StreamStats
	// PullDur, when non-nil, observes every cursor batch pull's duration.
	// The nil (disabled) path reads no clock and allocates nothing — the
	// grounding pull loop is a zero-alloc gate.
	PullDur *obs.Histogram
}

// sliceCursor adapts a materialized row slice to RowCursor — the path for
// plain Readers (and per-valuation Probe results) that have no cursor API.
type sliceCursor struct {
	rows []types.Tuple
	pos  int
}

func (c *sliceCursor) Next(buf []types.Tuple, max int) ([]types.Tuple, error) {
	if max <= 0 {
		max = 1
	}
	end := c.pos + max
	if end > len(c.rows) {
		end = len(c.rows)
	}
	buf = append(buf, c.rows[c.pos:end]...)
	c.pos = end
	return buf, nil
}

func (c *sliceCursor) Rewind() { c.pos = 0 }

// streamLevel is the runtime state of one join level.
type streamLevel struct {
	step *planStep
	cur  RowCursor     // current cursor (scan: cached+rewound; probe: per valuation)
	buf  []types.Tuple // current batch, backed by *pooled
	pos  int
	// pooled is the batch buffer taken from batchBufs for this grounding.
	pooled *[]types.Tuple

	scanCur   RowCursor     // cached scan cursor, reused via Rewind
	probeVals []types.Value // reusable probe key buffer
	probeCur  sliceCursor   // reusable wrapper for non-cursor Probe results
}

// groundStream drives one query's streaming join.
type groundStream struct {
	q       *Query
	plan    *joinPlan
	r       Reader
	ir      IndexedReader
	cr      CursorReader
	batch   int
	stats   *StreamStats
	pullDur *obs.Histogram

	slots    []types.Value // the current valuation, in the plan's slot layout
	levels   []streamLevel
	scanRows map[string][]types.Tuple // non-cursor readers: one Scan per relation

	// Emission scratch: the head and post atoms instantiated from the
	// slots, and their identity bytes with each atom key's span. A
	// duplicate is recognized here, before anything is allocated for it.
	atoms []GroundAtom
	ident []byte
	spans []int

	out  []*Grounding
	seen map[string]struct{}
	max  int
}

func newGroundStream(q *Query, plan *joinPlan, r Reader, opts GroundOptions) *groundStream {
	ir, _ := r.(IndexedReader)
	cr, _ := r.(CursorReader)
	batch := opts.BatchRows
	if batch <= 0 {
		batch = DefaultBatchRows
	}
	s := &groundStream{
		q:       q,
		plan:    plan,
		r:       r,
		ir:      ir,
		cr:      cr,
		batch:   batch,
		stats:   opts.Stats,
		pullDur: opts.PullDur,
		slots:   make([]types.Value, len(plan.vars)),
		seen:    make(map[string]struct{}),
		max:     opts.MaxGroundings,
	}
	s.levels = make([]streamLevel, len(plan.steps))
	for i := range s.levels {
		lv := &s.levels[i]
		lv.step = &plan.steps[i]
		lv.pooled, _ = batchBufs.Get().(*[]types.Tuple)
		if lv.pooled == nil || cap(*lv.pooled) < batch {
			buf := make([]types.Tuple, 0, batch)
			lv.pooled = &buf
		}
		lv.buf = (*lv.pooled)[:0]
	}
	s.atoms = make([]GroundAtom, 0, len(plan.head)+len(plan.post))
	for _, as := range [2][]slotAtom{plan.head, plan.post} {
		for _, a := range as {
			s.atoms = append(s.atoms, GroundAtom{Rel: a.rel, Args: make(types.Tuple, len(a.args))})
		}
	}
	return s
}

// batchBufs recycles the join levels' batch buffers across grounding
// calls: every run re-grounds the whole pending set, and each query needs
// one BatchRows-row buffer (6 KB at the default) per join level.
var batchBufs sync.Pool // of *[]types.Tuple

// release returns the batch buffers to batchBufs, cleared so the pool
// keeps no rows alive. The stream must not be used afterwards.
func (s *groundStream) release() {
	for i := range s.levels {
		lv := &s.levels[i]
		buf := (*lv.pooled)[:cap(*lv.pooled)]
		clear(buf)
		*lv.pooled = buf[:0]
		batchBufs.Put(lv.pooled)
		lv.pooled, lv.buf = nil, nil
	}
}

func (s *groundStream) capped() bool {
	return s.max > 0 && len(s.out) >= s.max
}

// open positions level i's cursor at its first row: scan levels reuse one
// cursor per level and rewind it, probe levels open a fresh probe keyed by
// the current valuation.
func (s *groundStream) open(i int) error {
	lv := &s.levels[i]
	step := lv.step
	if !step.probe {
		if lv.scanCur == nil {
			var err error
			lv.scanCur, err = s.scanCursor(step.atom.Rel)
			if err != nil {
				return err
			}
		} else {
			lv.scanCur.Rewind()
		}
		lv.cur = lv.scanCur
	} else {
		if lv.probeVals == nil {
			lv.probeVals = make([]types.Value, len(step.probeCols))
		}
		for k, t := range step.probeArgs {
			lv.probeVals[k], _ = t.resolve(s.slots)
		}
		cur, err := s.probeCursor(lv, step.atom.Rel, step.probeCols, lv.probeVals)
		if err != nil {
			return err
		}
		lv.cur = cur
	}
	lv.buf = lv.buf[:0]
	lv.pos = 0
	return nil
}

func (s *groundStream) scanCursor(rel string) (RowCursor, error) {
	if s.cr != nil {
		cur, err := s.cr.ScanCursor(rel)
		if err != nil {
			return nil, fmt.Errorf("eq: grounding read of %s: %w", rel, err)
		}
		return cur, nil
	}
	if s.scanRows == nil {
		s.scanRows = make(map[string][]types.Tuple)
	}
	rows, ok := s.scanRows[rel]
	if !ok {
		var err error
		rows, err = s.r.Scan(rel)
		if err != nil {
			return nil, fmt.Errorf("eq: grounding read of %s: %w", rel, err)
		}
		s.scanRows[rel] = rows
	}
	return &sliceCursor{rows: rows}, nil
}

func (s *groundStream) probeCursor(lv *streamLevel, rel string, cols []int, vals []types.Value) (RowCursor, error) {
	if s.cr != nil {
		cur, err := s.cr.ProbeCursor(rel, cols, vals)
		if err != nil {
			return nil, fmt.Errorf("eq: grounding read of %s: %w", rel, err)
		}
		return cur, nil
	}
	rows, err := s.ir.Probe(rel, cols, vals)
	if err != nil {
		return nil, fmt.Errorf("eq: grounding read of %s: %w", rel, err)
	}
	lv.probeCur = sliceCursor{rows: rows}
	return &lv.probeCur, nil
}

// refill pulls the next batch into level i's buffer; false means the cursor
// is exhausted.
func (s *groundStream) refill(i int) (bool, error) {
	lv := &s.levels[i]
	lv.buf = lv.buf[:0]
	lv.pos = 0
	var pullStart time.Time
	if s.pullDur != nil {
		pullStart = time.Now()
	}
	buf, err := lv.cur.Next(lv.buf, s.batch)
	if s.pullDur != nil {
		s.pullDur.Observe(time.Since(pullStart))
	}
	if err != nil {
		return false, fmt.Errorf("eq: grounding read of %s: %w", lv.step.atom.Rel, err)
	}
	lv.buf = buf
	if len(lv.buf) == 0 {
		return false, nil
	}
	s.stats.addRows(int64(len(lv.buf)))
	if s.stats != nil {
		resident := int64(0)
		for j := 0; j <= i; j++ {
			resident += int64(len(s.levels[j].buf))
		}
		s.stats.observePeak(resident)
	}
	return true, nil
}

// join runs levels i.. of the pipeline for the current valuation,
// identical in structure (bind, eager checks, recurse) to the materialized
// executor, but pulling rows batch-wise and stopping the moment the
// grounding cap is hit.
func (s *groundStream) join(i int) error {
	if s.capped() {
		return nil
	}
	if i == len(s.levels) {
		return s.emit()
	}
	if err := s.open(i); err != nil {
		return err
	}
	lv := &s.levels[i]
	step := lv.step
	for {
		if s.capped() {
			return nil
		}
		if lv.pos >= len(lv.buf) {
			more, err := s.refill(i)
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
		row := lv.buf[lv.pos]
		lv.pos++
		if len(row) != len(step.match) {
			return fmt.Errorf("eq: atom %s has arity %d but relation has arity %d", step.atom, len(step.match), len(row))
		}
		if !s.bind(step.match, row) {
			continue
		}
		// Pushed-down selections: constraints that became fully bound at
		// this level, applied before any deeper cursor opens.
		ok := true
		for _, c := range step.conds {
			holds, err := c.eval(s.slots)
			if err != nil {
				return err
			}
			if !holds {
				ok = false
				break
			}
		}
		if ok {
			if err := s.join(i + 1); err != nil {
				return err
			}
			// The recursion may have swapped deeper levels' cursors; this
			// level's state is untouched, continue the batch walk.
		}
	}
}

// bind matches row against a level's argument positions, storing the
// values of the variables the level binds into their slots. A rejected row
// may leave some of them written; nothing reads those slots before the
// level's next row overwrites them.
func (s *groundStream) bind(match []argMatch, row types.Tuple) bool {
	for j, m := range match {
		switch m.op {
		case argConst:
			if !m.val.Equal(row[j]) {
				return false
			}
		case argCheck:
			if !s.slots[m.slot].Equal(row[j]) {
				return false
			}
		default:
			if m.eq && !m.val.Equal(row[j]) {
				return false
			}
			s.slots[m.slot] = row[j]
		}
	}
	return true
}

// emit instantiates the current valuation into a grounding, applying the
// residual constraints (ones no join level fully binds — evaluating them
// surfaces the unbound-variable error for constraints over non-body
// variables, exactly as the materialized path did). The head and post
// atoms are instantiated into scratch and keyed there; only a grounding
// that survives deduplication is allocated.
func (s *groundStream) emit() error {
	for _, c := range s.plan.finalConds {
		ok, err := c.eval(s.slots)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	k := 0
	for _, as := range [2][]slotAtom{s.plan.head, s.plan.post} {
		for _, a := range as {
			for j, t := range a.args {
				s.atoms[k].Args[j], _ = t.resolve(s.slots)
			}
			k++
		}
	}
	nh := len(s.plan.head)
	s.ident, s.spans = appendIdent(s.ident[:0], s.atoms[:nh], s.atoms[nh:], s.spans[:0])
	if _, dup := s.seen[string(s.ident)]; dup {
		return nil
	}
	ident := string(s.ident)
	s.seen[ident] = struct{}{}
	val := make(Valuation, len(s.plan.vars))
	for slot, name := range s.plan.vars {
		val[name] = s.slots[slot]
	}
	s.out = append(s.out, newGrounding(s.atoms, nh, val, ident, s.spans))
	return nil
}

// GroundWith enumerates the groundings of q against r through the
// streaming pipeline. See Ground for the enumeration contract.
func GroundWith(q *Query, r Reader, opts GroundOptions) ([]*Grounding, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	plan := planQuery(q, r)
	s := newGroundStream(q, plan, r, opts)
	defer s.release()
	if err := s.join(0); err != nil {
		return nil, err
	}
	return s.out, nil
}

// Ground enumerates the groundings of q against r: every valuation of the
// body (streaming nested-loop join with pushed-down constraint
// application), instantiated into head and postcondition atoms. Groundings
// are deduplicated by their (head, post) identity and returned in
// enumeration order, which is deterministic for deterministic readers — the
// determinism assumption of Appendix C.1.
//
// The join order and access paths come from the statistics-free planner
// (plan.go); rows flow through pull cursors in bounded batches, so
// grounding a relation never materializes it, and maxGroundings (0 =
// unlimited) terminates the pipeline the instant the cap is hit — the
// safety valve against runaway cross products now also bounds the work, not
// just the output.
func Ground(q *Query, r Reader, maxGroundings int) ([]*Grounding, error) {
	return GroundWith(q, r, GroundOptions{MaxGroundings: maxGroundings})
}
