package eq

import (
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// GroundMaterialized is the pre-streaming grounding executor, kept as the
// differential-testing and benchmarking baseline: it consumes the same
// joinPlan as the streaming pipeline but materializes every scan as a full
// row slice and every probe as a per-valuation slice, exactly as Ground did
// before the cursor rewrite. The streaming ≡ materialized property test
// asserts Ground enumerates byte-identical groundings in identical order,
// and BenchmarkGroundMaterialized measures the memory the streaming path
// no longer pays.
func GroundMaterialized(q *Query, r Reader, maxGroundings int) ([]*Grounding, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	plan := planQuery(q, r)
	ir, _ := r.(IndexedReader)

	// Materialize every scan level up front, one Scan per relation.
	scans := make(map[string][]types.Tuple)
	scanRows := make([][]types.Tuple, len(plan.steps))
	for i := range plan.steps {
		step := &plan.steps[i]
		if step.probe {
			continue
		}
		rows, ok := scans[step.atom.Rel]
		if !ok {
			var err error
			rows, err = r.Scan(step.atom.Rel)
			if err != nil {
				return nil, fmt.Errorf("eq: grounding read of %s: %w", step.atom.Rel, err)
			}
			scans[step.atom.Rel] = rows
		}
		scanRows[i] = rows
	}

	var out []*Grounding
	seen := make(map[string]bool)
	val := make(Valuation)

	var join func(i int) error
	join = func(i int) error {
		if maxGroundings > 0 && len(out) >= maxGroundings {
			return nil
		}
		if i == len(plan.steps) {
			for _, c := range plan.final {
				ok, err := c.eval(val)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			g := &Grounding{Val: val.clone()}
			for _, a := range q.Head {
				ga, err := a.instantiate(val)
				if err != nil {
					return err
				}
				g.Head = append(g.Head, ga)
			}
			for _, a := range q.Post {
				ga, err := a.instantiate(val)
				if err != nil {
					return err
				}
				g.Post = append(g.Post, ga)
			}
			if k := identOf(g); !seen[k] {
				seen[k] = true
				out = append(out, g)
			}
			return nil
		}
		step := &plan.steps[i]
		atom := step.atom
		rows := scanRows[i]
		if step.probe {
			vals := make([]types.Value, len(step.probeCols))
			for k, c := range step.probeCols {
				t := atom.Args[c]
				switch {
				case !t.IsVar:
					vals[k] = t.Value
				default:
					if v, ok := val[t.Name]; ok {
						vals[k] = v
					} else {
						vals[k] = plan.eqBound[t.Name]
					}
				}
			}
			var err error
			rows, err = ir.Probe(atom.Rel, step.probeCols, vals)
			if err != nil {
				return fmt.Errorf("eq: grounding read of %s: %w", atom.Rel, err)
			}
		}
		for _, row := range rows {
			if len(row) != len(atom.Args) {
				return fmt.Errorf("eq: atom %s has arity %d but relation has arity %d", atom, len(atom.Args), len(row))
			}
			bound := make([]string, 0, len(atom.Args))
			ok := true
			for j, t := range atom.Args {
				if t.IsVar {
					if existing, isBound := val[t.Name]; isBound {
						if !existing.Equal(row[j]) {
							ok = false
							break
						}
					} else {
						if c, isEq := plan.eqBound[t.Name]; isEq && !c.Equal(row[j]) {
							ok = false
							break
						}
						val[t.Name] = row[j]
						bound = append(bound, t.Name)
					}
				} else if !t.Value.Equal(row[j]) {
					ok = false
					break
				}
			}
			if ok {
				for _, c := range step.checks {
					holds, err := c.eval(val)
					if err != nil {
						return err
					}
					if !holds {
						ok = false
						break
					}
				}
			}
			if ok {
				if err := join(i + 1); err != nil {
					return err
				}
			}
			for _, name := range bound {
				delete(val, name)
			}
		}
		return nil
	}
	if err := join(0); err != nil {
		return nil, err
	}
	return out, nil
}

// The reference executor's map valuation: every variable an atom binds is
// a key, and a variable no atom binds is absent.

// instantiate applies a valuation to the atom's arguments; every variable
// must be bound.
func (a Atom) instantiate(val Valuation) (GroundAtom, error) {
	args := make(types.Tuple, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar {
			v, ok := val[t.Name]
			if !ok {
				return GroundAtom{}, fmt.Errorf("eq: unbound variable %s in %s", t.Name, a)
			}
			args[i] = v
		} else {
			args[i] = t.Value
		}
	}
	return GroundAtom{Rel: a.Rel, Args: args}, nil
}

// eval evaluates the constraint under a valuation; both sides must be
// bound.
func (c Constraint) eval(val Valuation) (bool, error) {
	l, err := resolve(c.Left, val)
	if err != nil {
		return false, err
	}
	r, err := resolve(c.Right, val)
	if err != nil {
		return false, err
	}
	return c.Op.holds(l, r)
}

func resolve(t Term, val Valuation) (types.Value, error) {
	if !t.IsVar {
		return t.Value, nil
	}
	v, ok := val[t.Name]
	if !ok {
		return types.Null(), fmt.Errorf("eq: unbound variable %s", t.Name)
	}
	return v, nil
}

// clone copies the valuation.
func (v Valuation) clone() Valuation {
	out := make(Valuation, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// BenchmarkGroundMaterialized runs GroundMaterialized on the 10x shape of
// the root package's BenchmarkFigure6bScale: p=8 pending flight queries
// grounded in one round over a 20k-row Flights table with 8 dest='LA'
// rows. Its B/op is the baseline for that benchmark's
// scale=10x/path=streaming row. The reader is the pre-streaming round scan
// cache: the round's first scan clones a snapshot that the remaining
// queries share.
func BenchmarkGroundMaterialized(b *testing.B) {
	const p, rows, matching = 8, 20_000, 8
	tbl := storage.NewTable("Flights", types.NewSchema(
		types.Column{Name: "fno", Type: types.KindInt},
		types.Column{Name: "fdate", Type: types.KindDate},
		types.Column{Name: "dest", Type: types.KindString},
		types.Column{Name: "carrier", Type: types.KindString},
		types.Column{Name: "seats", Type: types.KindInt},
	))
	dates := []string{"2011-05-03", "2011-05-04", "2011-05-05", "2011-05-06"}
	carriers := []string{"AA", "UA", "DL"}
	for i := 0; i < rows; i++ {
		dest := fmt.Sprintf("D%02d", i%50)
		if i < matching {
			dest = "LA"
		}
		if _, err := tbl.Insert(types.Tuple{
			types.Int(int64(i)), types.MustDate(dates[i%len(dates)]), types.Str(dest),
			types.Str(carriers[i%len(carriers)]), types.Int(int64(100 + i%200)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	query := func(j int) *Query {
		return &Query{
			Head:   []Atom{NewAtom("R", CStr(fmt.Sprintf("u%d", j)), V("f"))},
			Body:   []Atom{NewAtom("Flights", V("f"), V("dt"), V("d"), V("c"), V("s"))},
			Where:  []Constraint{{Left: V("d"), Op: OpEq, Right: CStr("LA")}},
			Choose: 1,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &roundScanReader{tbl: tbl}
		for j := 0; j < p; j++ {
			gs, err := GroundMaterialized(query(j), r, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(gs) != matching {
				b.Fatalf("groundings = %d, want %d", len(gs), matching)
			}
		}
	}
}

// roundScanReader is the pre-streaming round scan cache: the first
// grounding read of a table materializes a cloned snapshot, which the
// round's remaining queries share.
type roundScanReader struct {
	tbl  *storage.Table
	rows []types.Tuple
}

func (r *roundScanReader) Scan(string) ([]types.Tuple, error) {
	if r.rows == nil {
		r.rows = r.tbl.AllAsOf(storage.Snapshot{})
	}
	return r.rows, nil
}
