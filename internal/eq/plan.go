package eq

import (
	"errors"

	"repro/internal/types"
)

// Two-phase statistics-free join planner.
//
// Phase 1 (join order + access paths) generalizes the boundness heuristic:
// atoms are ordered greedily, and for each position the planner picks the
// not-yet-placed atom with
//
//  1. the most bound argument positions (constants, variables constrained
//     equal to a constant, variables bound by earlier atoms) — maximally
//     selective joins run outermost;
//  2. among ties, an atom whose bound positions are index-probe-able — a
//     probe touches only matching rows, a scan touches all of them;
//  3. among ties, the fewest distinct free variables — fewer new bindings
//     means a narrower downstream cross product;
//  4. among ties, submission order — the deterministic final tie-break.
//
// No cardinality estimates, no histograms: for the pattern-shaped queries
// entangled queries compile to, boundness dominates selectivity, and every
// tie-break is computable from the query text plus index metadata alone.
// The order is therefore a pure function of (query, index metadata), so
// serial, parallel, cached, and re-run evaluation enumerate identically.
//
// Phase 2 (selection pushdown) assigns each WHERE constraint to the
// earliest join level at which every variable it mentions is bound by an
// atom — the streaming executor applies it the moment a row binds that
// level, discarding the row before any deeper cursor is opened. Constraints
// mentioning a variable no atom binds go to the final set and surface the
// same unbound-variable error the materialized path raised at emission.
//
// Phase 3 (slot layout) numbers the body variables in the order the join
// binds them. The executor keeps the current valuation in a []types.Value
// indexed by that number instead of a map keyed by name. Because the join
// order is fixed, whether an argument binds a fresh variable or checks a
// variable an earlier level (or argument) bound is known here, so the
// executor needs no bound flags and never unbinds: a slot is simply
// overwritten by the next row at its level. Constraints, probe keys and the
// head and post templates are compiled against the same layout.
//
// The plan fetches no rows: access-path choice consults only
// IndexedReader.CanProbe. Row flow is the executor's job (stream.go), which
// is what lets planning stay allocation-light and the pipeline lazy.

// planStep is one level of the join: an atom, its access path, and the
// constraints to apply as soon as the level's row is bound.
type planStep struct {
	atom      Atom
	probe     bool
	probeCols []int // schema positions probed (probe only)
	checks    []Constraint

	// Compiled against the slot layout.
	match     []argMatch       // per argument position
	probeArgs []slotTerm       // per probe column: constant or earlier slot
	conds     []slotConstraint // checks
}

// joinPlan is the executable plan for one query's body.
type joinPlan struct {
	steps   []planStep
	final   []Constraint // constraints no level fully binds (checked at emission)
	eqBound map[string]types.Value

	vars       []string         // slot -> body variable name
	finalConds []slotConstraint // final
	head, post []slotAtom
}

// slotTerm is a term resolved against the slot layout.
type slotTerm struct {
	slot int         // >= 0: the variable's slot; else constTerm or unboundTerm
	val  types.Value // constTerm: the constant
	name string      // unboundTerm: the variable, for the error
}

const (
	constTerm   = -1
	unboundTerm = -2 // a variable no body atom binds
)

func (t slotTerm) resolve(slots []types.Value) (types.Value, error) {
	switch {
	case t.slot >= 0:
		return slots[t.slot], nil
	case t.slot == constTerm:
		return t.val, nil
	}
	return types.Null(), errors.New("eq: unbound variable " + t.name)
}

// argMatch says what one argument position of a level's atom does with the
// row value: compare it with a constant (argConst), check it against a
// slot bound earlier (argCheck), or store it into a fresh slot (argBind),
// rejecting it early when the variable is constrained equal to a constant.
type argMatch struct {
	op   argOp
	slot int
	eq   bool        // argBind: val is the constant the variable must equal
	val  types.Value // argConst, or argBind with eq
}

type argOp uint8

const (
	argConst argOp = iota
	argCheck
	argBind
)

// slotConstraint is a Constraint compiled against the slot layout.
type slotConstraint struct {
	l, r slotTerm
	op   CmpOp
}

// eval evaluates the constraint over the bound slots; resolving a variable
// no atom binds fails, left side first.
func (c slotConstraint) eval(slots []types.Value) (bool, error) {
	l, err := c.l.resolve(slots)
	if err != nil {
		return false, err
	}
	r, err := c.r.resolve(slots)
	if err != nil {
		return false, err
	}
	return c.op.holds(l, r)
}

// slotAtom is a head or post atom compiled against the slot layout;
// range restriction (Validate) guarantees every variable has a slot.
type slotAtom struct {
	rel  string
	args []slotTerm
}

// probePath decides the access path for an atom given its currently-bound
// argument positions: a full-cover index probe when the reader has one,
// else a probe over any single bound position (the match loop re-verifies
// the remaining bound positions, so a subset probe is always semantically
// equivalent), else a scan.
func probePath(ir IndexedReader, rel string, boundPos []int) (bool, []int) {
	if ir == nil || len(boundPos) == 0 {
		return false, nil
	}
	if ir.CanProbe(rel, boundPos) {
		return true, boundPos
	}
	for _, c := range boundPos {
		if ir.CanProbe(rel, []int{c}) {
			return true, []int{c}
		}
	}
	return false, nil
}

// planQuery builds the join plan for q against r's index metadata.
func planQuery(q *Query, r Reader) *joinPlan {
	ir, _ := r.(IndexedReader)
	eqBound := eqBindings(q)
	n := len(q.Body)
	bound := make(map[string]bool, len(eqBound))
	for name := range eqBound {
		bound[name] = true
	}

	type candidate struct {
		idx       int
		boundCnt  int
		freeCnt   int
		probe     bool
		probeCols []int
	}
	better := func(c, best candidate) bool {
		if c.boundCnt != best.boundCnt {
			return c.boundCnt > best.boundCnt
		}
		if c.probe != best.probe {
			return c.probe
		}
		return c.freeCnt < best.freeCnt
		// Equal on all counts: keep the earlier candidate (submission order).
	}

	used := make([]bool, n)
	steps := make([]planStep, 0, n)
	free := make(map[string]bool)
	for len(steps) < n {
		best := candidate{idx: -1}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			atom := q.Body[i]
			var boundPos []int
			for name := range free {
				delete(free, name)
			}
			for j, t := range atom.Args {
				if !t.IsVar || bound[t.Name] {
					boundPos = append(boundPos, j)
				} else {
					free[t.Name] = true
				}
			}
			probe, probeCols := probePath(ir, atom.Rel, boundPos)
			c := candidate{idx: i, boundCnt: len(boundPos), freeCnt: len(free), probe: probe, probeCols: probeCols}
			if best.idx < 0 || better(c, best) {
				best = c
			}
		}
		used[best.idx] = true
		atom := q.Body[best.idx]
		steps = append(steps, planStep{atom: atom, probe: best.probe, probeCols: best.probeCols})
		for _, t := range atom.Args {
			if t.IsVar {
				bound[t.Name] = true
			}
		}
	}

	plan := &joinPlan{steps: steps, eqBound: eqBound}

	// Selection pushdown. atomBound tracks variables bound by atoms at
	// levels <= L (eqBound alone does not put a variable into the valuation;
	// only a row binding does, so only atom-bound variables make a
	// constraint evaluable).
	atomBound := make(map[string]bool)
	levelOf := func(c Constraint) int {
		for lv := range plan.steps {
			plan.steps[lv].atom.vars(atomBound)
			ok := true
			for _, t := range []Term{c.Left, c.Right} {
				if t.IsVar && !atomBound[t.Name] {
					ok = false
					break
				}
			}
			if ok {
				return lv
			}
		}
		return -1
	}
	for _, c := range q.Where {
		for name := range atomBound {
			delete(atomBound, name)
		}
		if !c.Left.IsVar && !c.Right.IsVar && len(plan.steps) > 0 {
			// Constant-only comparison: evaluable at the outermost level.
			plan.steps[0].checks = append(plan.steps[0].checks, c)
			continue
		}
		if lv := levelOf(c); lv >= 0 {
			plan.steps[lv].checks = append(plan.steps[lv].checks, c)
		} else {
			plan.final = append(plan.final, c)
		}
	}
	plan.layoutSlots(q)
	return plan
}

// layoutSlots assigns every body variable a slot, in binding order, and
// compiles the steps, constraints and head and post atoms against it.
func (plan *joinPlan) layoutSlots(q *Query) {
	slotOf := make(map[string]int)
	term := func(t Term) slotTerm {
		if !t.IsVar {
			return slotTerm{slot: constTerm, val: t.Value}
		}
		if slot, ok := slotOf[t.Name]; ok {
			return slotTerm{slot: slot}
		}
		return slotTerm{slot: unboundTerm, name: t.Name}
	}
	for i := range plan.steps {
		step := &plan.steps[i]
		// Probe keys are built when the level opens, before its row binds:
		// from constants, earlier levels' slots, or the equality constant.
		for _, c := range step.probeCols {
			pt := term(step.atom.Args[c])
			if pt.slot == unboundTerm {
				pt = slotTerm{slot: constTerm, val: plan.eqBound[pt.name]}
			}
			step.probeArgs = append(step.probeArgs, pt)
		}
		step.match = make([]argMatch, len(step.atom.Args))
		for j, t := range step.atom.Args {
			switch pt := term(t); {
			case pt.slot == constTerm:
				step.match[j] = argMatch{op: argConst, val: t.Value}
			case pt.slot >= 0:
				step.match[j] = argMatch{op: argCheck, slot: pt.slot}
			default:
				slot := len(plan.vars)
				slotOf[t.Name] = slot
				plan.vars = append(plan.vars, t.Name)
				c, eq := plan.eqBound[t.Name]
				step.match[j] = argMatch{op: argBind, slot: slot, eq: eq, val: c}
			}
		}
	}
	compile := func(cs []Constraint) []slotConstraint {
		out := make([]slotConstraint, len(cs))
		for i, c := range cs {
			out[i] = slotConstraint{l: term(c.Left), r: term(c.Right), op: c.Op}
		}
		return out
	}
	for i := range plan.steps {
		plan.steps[i].conds = compile(plan.steps[i].checks)
	}
	plan.finalConds = compile(plan.final)
	atoms := func(as []Atom) []slotAtom {
		out := make([]slotAtom, len(as))
		for i, a := range as {
			out[i] = slotAtom{rel: a.Rel, args: make([]slotTerm, len(a.Args))}
			for j, t := range a.Args {
				out[i].args[j] = term(t)
			}
		}
		return out
	}
	plan.head, plan.post = atoms(q.Head), atoms(q.Post)
}
