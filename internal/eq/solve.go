package eq

import (
	"encoding/binary"
	"slices"
	"sort"
)

// Coordinating-set search: given the groundings of a set of pending
// queries, select at most one grounding per query such that every chosen
// postcondition atom appears among the chosen head atoms (Appendix A:
// "the groundings in G′ can all mutually satisfy each other's
// postconditions").
//
// The solver is EXACT: it returns a maximum-size answered set. Appendix A
// only requires *a* coordinating set, but a non-maximal one silently
// leaves answerable queries unanswered the moment coordination structures
// overlap and compete — two hubs contending for one spoke, a marketplace
// of buyers for one seller, chained cycles sharing a member. The earlier
// greedy closure was exact only for disjoint structures.
//
// The search decomposes the pending set into independent components
// (queries connected through produced/consumed atom keys), then runs a
// depth-first branch-and-bound per component:
//
//   - Queries are decided in submission order; for each query the
//     groundings are tried in enumeration order, then "unanswered". The
//     first maximum found is kept, which makes the tie-break
//     deterministic: among maximum answered sets, earlier-submitted
//     queries are preferred answered, with their earliest groundings.
//   - An obligation (a chosen postcondition atom not covered by a chosen
//     head) that no undecided query can still produce kills the branch.
//   - Branches that cannot beat the best answered count found so far are
//     pruned.
//   - Obligation states proven unsatisfiable are memoized (conflict
//     learning), so structurally repeated dead ends are cut once.
//
// Atom keys are interned into dense ids once per Solve call (newProblem),
// so the search and the greedy closure index slices by atom id instead of
// hashing key strings; the memo's state keys are built from sorted ids.
//
// Every node of the search costs one step against a budget. A component
// whose search exhausts the budget falls back to the original greedy
// closure for that component — still a valid coordinating set, no longer
// guaranteed maximal — and the outcome is reported in SolveStats so the
// engine can surface the degradation instead of hiding it.

// DefaultSolveBudget bounds the total number of search nodes across the
// components of one Solve call. The paper's §5.2 structures (pairs,
// spoke-hubs, cycles of size ≤ 10) solve in tens of nodes; the budget only
// matters for adversarially dense overlap.
const DefaultSolveBudget = 200000

// SolveStats reports what the coordinating-set search did.
type SolveStats struct {
	// Steps is the number of search nodes visited (exact search and greedy
	// fallback combined).
	Steps int
	// Components is the number of independent subproblems the pending set
	// decomposed into.
	Components int
	// Answered is the number of queries that received a grounding.
	Answered int
	// Exhausted reports that at least one component ran out of budget and
	// fell back to the greedy closure: the answered set is valid but no
	// longer guaranteed maximum-size.
	Exhausted bool
}

// Solve returns, for each query, the index of the chosen grounding (or -1
// if the query is left unanswered this round), using the default budget.
func Solve(groundings [][]*Grounding) []int {
	chosen, _ := SolveBudget(groundings, 0)
	return chosen
}

// SolveBudget is Solve with an explicit node budget. budget == 0 uses
// DefaultSolveBudget; budget < 0 skips the exact search entirely and runs
// the greedy closure alone (the pre-exact behavior, kept for ablation).
func SolveBudget(groundings [][]*Grounding, budget int) ([]int, SolveStats) {
	if budget == 0 {
		budget = DefaultSolveBudget
	}
	p := newProblem(groundings)
	comps := p.components()

	stats := SolveStats{Components: len(comps)}
	chosen := make([]int, len(groundings))
	for i := range chosen {
		chosen[i] = -1
	}
	// Both solvers are built on first use: most rounds never fall back.
	var g *greedySolver
	greedy := func(comp []int, steps *int) {
		if g == nil {
			g = &greedySolver{p: p, chosen: chosen, chosenHead: make([]int32, p.nkeys)}
		}
		g.solveComponent(comp, steps)
	}
	var ex *exactSolver

	steps := 0
	for _, comp := range comps {
		if budget < 0 || steps >= budget {
			if budget >= 0 {
				stats.Exhausted = true
			}
			greedy(comp, &steps)
			continue
		}
		if ex == nil {
			ex = newExactSolver(p, &steps, budget)
		}
		if best, ok := ex.search(comp); ok {
			for pi, qi := range comp {
				chosen[qi] = best[pi]
			}
		} else {
			// Budget ran out mid-component: discard the partial search and
			// answer this component greedily.
			stats.Exhausted = true
			greedy(comp, &steps)
		}
	}
	stats.Steps = steps
	for _, gi := range chosen {
		if gi >= 0 {
			stats.Answered++
		}
	}
	return chosen, stats
}

// problem is the shared indexed view of one Solve call's input, with every
// ground atom key interned into a dense id in [0, nkeys).
type problem struct {
	groundings [][]*Grounding
	nkeys      int
	ids        [][]groundingIDs // [query][grounding] head and post atom ids
	prodIDs    [][]int32        // [query] distinct ids any grounding produces
	// The producers of atom id k are prodList[prodStart[k]:prodStart[k+1]],
	// in (query, grounding) order.
	prodStart []int32
	prodList  []producer
}

type groundingIDs struct {
	head, post []int32
}

type producer struct {
	query, grounding int
}

func newProblem(groundings [][]*Grounding) *problem {
	p := &problem{
		groundings: groundings,
		ids:        make([][]groundingIDs, len(groundings)),
		prodIDs:    make([][]int32, len(groundings)),
	}
	total := 0
	for _, gs := range groundings {
		for _, g := range gs {
			total += len(g.Head) + len(g.Post)
		}
	}
	intern := make(map[string]int32, total)
	arena := make([]int32, total)
	var nprod []int32 // producer count per id
	for qi, gs := range groundings {
		p.ids[qi] = make([]groundingIDs, len(gs))
		for gi, g := range gs {
			keys := g.keys()
			own := arena[:len(keys):len(keys)]
			arena = arena[len(keys):]
			for i, k := range keys {
				id, ok := intern[k]
				if !ok {
					id = int32(len(intern))
					intern[k] = id
					nprod = append(nprod, 0)
				}
				own[i] = id
			}
			nh := len(g.Head)
			for _, id := range own[:nh] {
				nprod[id]++
			}
			p.ids[qi][gi] = groundingIDs{head: own[:nh:nh], post: own[nh:]}
		}
	}
	p.nkeys = len(intern)
	p.prodStart = make([]int32, p.nkeys+1)
	for k, n := range nprod {
		p.prodStart[k+1] = p.prodStart[k] + n
	}
	p.prodList = make([]producer, p.prodStart[p.nkeys])
	next := nprod // reused: the next free producer slot per id
	copy(next, p.prodStart)
	lastQuery := make([]int32, p.nkeys) // query+1 that last produced the id
	for qi, gs := range p.ids {
		for gi, g := range gs {
			for _, k := range g.head {
				p.prodList[next[k]] = producer{query: qi, grounding: gi}
				next[k]++
				if lastQuery[k] != int32(qi+1) {
					lastQuery[k] = int32(qi + 1)
					p.prodIDs[qi] = append(p.prodIDs[qi], k)
				}
			}
		}
	}
	return p
}

// producers returns the (query, grounding) pairs whose head produces atom k.
func (p *problem) producers(k int32) []producer {
	return p.prodList[p.prodStart[k]:p.prodStart[k+1]]
}

// components partitions the queries into independent subproblems: query a
// and query b belong together when some atom key one of them can post is
// producible by the other (directly or transitively). Posts and heads
// never cross a component boundary, so each component solves alone and the
// global maximum is the sum of the component maxima. Components are
// returned ordered by their smallest query index, members ascending —
// submission order, for determinism.
func (p *problem) components() [][]int {
	parent := make([]int, len(p.groundings))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(b)] = find(a) }
	for qi, gs := range p.ids {
		for _, g := range gs {
			for _, k := range g.post {
				for _, pr := range p.producers(k) {
					union(qi, pr.query)
				}
			}
		}
	}
	byRoot := make([][]int, len(p.groundings))
	var roots []int
	for qi := range p.groundings {
		r := find(qi)
		if len(byRoot[r]) == 0 {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], qi)
	}
	sort.Slice(roots, func(i, j int) bool { return byRoot[roots[i]][0] < byRoot[roots[j]][0] })
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// idSet is a set of atom ids with constant-time add and remove, iterable
// (in no particular order) through list.
type idSet struct {
	list []int32
	pos  []int32 // pos[id] = index in list + 1; 0 = absent
}

func newIDSet(n int) idSet { return idSet{pos: make([]int32, n)} }

func (s *idSet) add(id int32) {
	if s.pos[id] == 0 {
		s.list = append(s.list, id)
		s.pos[id] = int32(len(s.list))
	}
}

func (s *idSet) remove(id int32) {
	i := s.pos[id]
	if i == 0 {
		return
	}
	last := s.list[len(s.list)-1]
	s.list[i-1] = last
	s.pos[last] = i
	s.list = s.list[:len(s.list)-1]
	s.pos[id] = 0
}

// exactSolver runs the branch-and-bound search over one component at a
// time. Its per-atom state is allocated once per Solve call: every search
// leaves have, need and the sets as it found them (apply and undo balance,
// also when the budget aborts), and finish clears the component's
// futureProd and postLastPos entries.
type exactSolver struct {
	p    *problem
	comp []int // global query indices, ascending (submission order)

	steps  *int
	budget int

	// Search state. Coverage is boolean per atom: a post atom is satisfied
	// iff some chosen head produces it, however many posts need it or heads
	// provide it — the counts only drive incremental updates.
	cur       []int   // per component position: grounding or -1
	have      []int32 // chosen head atom -> refcount
	need      []int32 // chosen post atom -> refcount
	uncovered idSet   // need > 0 and have == 0
	provided  idSet   // have > 0
	// futureProd[k] counts the undecided component queries that still have
	// a grounding producing k; an uncovered atom with no future producer is
	// a dead obligation.
	futureProd []int32

	best    int
	bestSet []int

	// suffixAnswerable[i] = number of component queries at positions >= i
	// that have at least one grounding (the bound's optimistic remainder).
	suffixAnswerable []int
	// postLastPos[k] = last component position whose groundings post k, or
	// -1; heads for atoms past their last post position cannot matter
	// anymore, which keeps memo states small and maximally shared.
	postLastPos []int32

	// failed memoizes obligation states proven unsatisfiable: from this
	// position, with these uncovered obligations and these already-provided
	// heads, no assignment of the remaining queries covers everything.
	failed map[string]bool
	memo   bool
	// stateKey scratch.
	stateIDs []int32
	stateBuf []byte
}

func newExactSolver(p *problem, steps *int, budget int) *exactSolver {
	ex := &exactSolver{
		p:           p,
		steps:       steps,
		budget:      budget,
		have:        make([]int32, p.nkeys),
		need:        make([]int32, p.nkeys),
		uncovered:   newIDSet(p.nkeys),
		provided:    newIDSet(p.nkeys),
		futureProd:  make([]int32, p.nkeys),
		postLastPos: make([]int32, p.nkeys),
	}
	for k := range ex.postLastPos {
		ex.postLastPos[k] = -1
	}
	return ex
}

// search explores one component exhaustively. It returns the maximum
// answered assignment (valid until the next search) and true, or nil and
// false when the budget ran out before the search completed.
func (ex *exactSolver) search(comp []int) ([]int, bool) {
	ex.start(comp)
	_, _, exhausted := ex.dfs(0, 0)
	ex.finish()
	if exhausted {
		return nil, false
	}
	return ex.bestSet, true
}

// start sets up the search of comp.
func (ex *exactSolver) start(comp []int) {
	p := ex.p
	ex.comp = comp
	ex.cur = fillInts(ex.cur, len(comp), -1)
	ex.bestSet = fillInts(ex.bestSet, len(comp), -1)
	ex.best = -1
	ex.memo = len(comp) >= 3
	for _, qi := range comp {
		for _, k := range p.prodIDs[qi] {
			ex.futureProd[k]++
		}
	}
	ex.suffixAnswerable = fillInts(ex.suffixAnswerable, len(comp)+1, 0)
	for i := len(comp) - 1; i >= 0; i-- {
		n := 0
		if len(p.groundings[comp[i]]) > 0 {
			n = 1
		}
		ex.suffixAnswerable[i] = ex.suffixAnswerable[i+1] + n
	}
	if ex.memo {
		ex.failed = make(map[string]bool)
		for i, qi := range comp {
			for _, g := range p.ids[qi] {
				for _, k := range g.post {
					ex.postLastPos[k] = int32(i)
				}
			}
		}
	}
}

// finish clears the state start set up for the component.
func (ex *exactSolver) finish() {
	for _, qi := range ex.comp {
		for _, k := range ex.p.prodIDs[qi] {
			ex.futureProd[k] = 0
		}
		if ex.memo {
			for _, g := range ex.p.ids[qi] {
				for _, k := range g.post {
					ex.postLastPos[k] = -1
				}
			}
		}
	}
	ex.failed = nil
}

// fillInts returns s resized to n elements, all set to v.
func fillInts(s []int, n, v int) []int {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// dfs decides the query at component position i. It reports whether any
// feasible completion was reached, whether some subtree was cut by the
// answered-count bound (such a subtree may hide feasible completions, so
// its parent state must not be memoized as unsatisfiable), and whether the
// budget ran out (aborts the whole component search).
func (ex *exactSolver) dfs(i, answered int) (feasible, bounded, exhausted bool) {
	*ex.steps++
	if *ex.steps > ex.budget {
		return false, false, true
	}
	// Dead-obligation check: an uncovered post no remaining query can
	// produce can never be satisfied.
	for _, k := range ex.uncovered.list {
		if ex.futureProd[k] == 0 {
			return false, false, false
		}
	}
	if i == len(ex.comp) {
		// futureProd is all zero here, so uncovered is empty: a leaf is
		// always a coordinating set.
		if answered > ex.best {
			ex.best = answered
			copy(ex.bestSet, ex.cur)
		}
		return true, false, false
	}
	if answered+ex.suffixAnswerable[i] <= ex.best {
		return false, true, false
	}
	if ex.memo && ex.failed[string(ex.stateKey(i))] {
		return false, false, false
	}
	qi := ex.comp[i]
	for gi := range ex.p.groundings[qi] {
		ex.apply(i, gi)
		f, b, e := ex.dfs(i+1, answered+1)
		ex.undo(i, gi)
		if e {
			return false, false, true
		}
		feasible = feasible || f
		bounded = bounded || b
	}
	// Leaving the query unanswered costs nothing but the branch.
	ex.decideSkip(qi)
	f, b, e := ex.dfs(i+1, answered)
	ex.undoSkip(qi)
	if e {
		return false, false, true
	}
	feasible = feasible || f
	bounded = bounded || b
	if ex.memo && !feasible && !bounded {
		// Every branch died on obligations (not on the count bound): this
		// obligation state is unsatisfiable regardless of the running best.
		// The branches restored the state, so its key is the one looked up
		// on entry.
		ex.failed[string(ex.stateKey(i))] = true
	}
	return feasible, bounded, false
}

// apply selects grounding gi for the query at component position i.
func (ex *exactSolver) apply(i, gi int) {
	qi := ex.comp[i]
	ex.cur[i] = gi
	for _, k := range ex.p.prodIDs[qi] {
		ex.futureProd[k]--
	}
	g := ex.p.ids[qi][gi]
	for _, k := range g.head {
		if ex.have[k]++; ex.have[k] == 1 {
			ex.uncovered.remove(k)
			ex.provided.add(k)
		}
	}
	for _, k := range g.post {
		if ex.need[k]++; ex.need[k] == 1 && ex.have[k] == 0 {
			ex.uncovered.add(k)
		}
	}
}

// undo reverses apply.
func (ex *exactSolver) undo(i, gi int) {
	qi := ex.comp[i]
	ex.cur[i] = -1
	g := ex.p.ids[qi][gi]
	for _, k := range g.post {
		if ex.need[k]--; ex.need[k] == 0 {
			ex.uncovered.remove(k)
		}
	}
	for _, k := range g.head {
		if ex.have[k]--; ex.have[k] == 0 {
			ex.provided.remove(k)
			if ex.need[k] > 0 {
				ex.uncovered.add(k)
			}
		}
	}
	for _, k := range ex.p.prodIDs[qi] {
		ex.futureProd[k]++
	}
}

func (ex *exactSolver) decideSkip(qi int) {
	for _, k := range ex.p.prodIDs[qi] {
		ex.futureProd[k]--
	}
}

func (ex *exactSolver) undoSkip(qi int) {
	for _, k := range ex.p.prodIDs[qi] {
		ex.futureProd[k]++
	}
}

// stateKey canonicalizes the subtree-relevant search state at position i:
// the uncovered obligations (all of which need a future head) plus the
// already-provided head atoms that some grounding at position >= i still
// posts. Counts are irrelevant to the suffix — coverage is boolean — so
// two prefixes reaching the same (position, obligations, useful heads)
// triple have identical suffix feasibility. The key is i followed by the
// sorted tagged ids (id<<1 for an obligation, id<<1|1 for a head), all as
// uvarints, in a scratch buffer valid until the next call.
func (ex *exactSolver) stateKey(i int) []byte {
	ids := ex.stateIDs[:0]
	for _, k := range ex.uncovered.list {
		ids = append(ids, k<<1)
	}
	for _, k := range ex.provided.list {
		if ex.postLastPos[k] >= int32(i) {
			ids = append(ids, k<<1|1)
		}
	}
	slices.Sort(ids)
	buf := binary.AppendUvarint(ex.stateBuf[:0], uint64(i))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	ex.stateIDs, ex.stateBuf = ids, buf
	return buf
}

// greedySolver is the pre-exact closure search, kept as the budget
// fallback (and as the ablation baseline): answer queries in submission
// order, transitively selecting producers for each obligation with local
// backtracking. Valid but not guaranteed maximal under competition.
type greedySolver struct {
	p          *problem
	chosen     []int
	chosenHead []int32 // atom id -> refcount among chosen heads
	steps      int
}

// greedyBudget bounds the fallback closure independently of the exact
// budget (the closure is near-linear on real structures; the cap only
// guards adversarially dense instances, as it did pre-exact).
const greedyBudget = DefaultSolveBudget

// solveComponent runs the greedy closure over one component. Obligation
// atoms never cross components, so operating on the shared global
// chosen/chosenHead state is equivalent to solving the component alone.
func (g *greedySolver) solveComponent(comp []int, steps *int) {
	for _, qi := range comp {
		if g.chosen[qi] >= 0 {
			continue
		}
		for gi := range g.p.groundings[qi] {
			if g.tryClose(qi, gi) {
				break
			}
		}
	}
	*steps += g.steps
	g.steps = 0
}

// tryClose attempts to select grounding gi for query qi and transitively
// satisfy every obligation. On failure all tentative selections are undone.
func (g *greedySolver) tryClose(qi, gi int) bool {
	var trail []int // query indices tentatively selected, for rollback
	ok := g.selectGrounding(qi, gi, &trail)
	if !ok {
		for i := len(trail) - 1; i >= 0; i-- {
			g.unselect(trail[i])
		}
	}
	return ok
}

// selectGrounding marks (qi, gi) chosen and recursively covers its
// postconditions. The trail records selections for rollback.
func (g *greedySolver) selectGrounding(qi, gi int, trail *[]int) bool {
	g.steps++
	if g.steps > greedyBudget {
		return false
	}
	g.chosen[qi] = gi
	*trail = append(*trail, qi)
	ids := g.p.ids[qi][gi]
	for _, k := range ids.head {
		g.chosenHead[k]++
	}
	for _, k := range ids.post {
		if !g.cover(k, trail) {
			return false
		}
	}
	return true
}

// cover ensures atom k is among chosen heads, selecting a producer if
// needed. Alternatives are tried with local backtracking.
func (g *greedySolver) cover(k int32, trail *[]int) bool {
	if g.chosenHead[k] > 0 {
		return true
	}
	for _, pr := range g.p.producers(k) {
		if g.chosen[pr.query] >= 0 {
			// Already selected with a different grounding; its head did not
			// contain k (else chosenHead would be positive), and a query
			// may contribute at most one grounding.
			continue
		}
		mark := len(*trail)
		if g.selectGrounding(pr.query, pr.grounding, trail) {
			return true
		}
		// Roll back the subtree this attempt selected.
		for i := len(*trail) - 1; i >= mark; i-- {
			g.unselect((*trail)[i])
		}
		*trail = (*trail)[:mark]
	}
	return false
}

// unselect reverses a selection.
func (g *greedySolver) unselect(qi int) {
	gi := g.chosen[qi]
	if gi < 0 {
		return
	}
	for _, k := range g.p.ids[qi][gi].head {
		g.chosenHead[k]--
	}
	g.chosen[qi] = -1
}

// FormableSet reports, for each pending query, whether a combined query
// including it could be formulated from the pending set. The test is
// database-independent, as Appendix B requires: every postcondition atom
// must syntactically unify with a head atom of some other *formable*
// pending query (same relation and arity; constants equal wherever both
// sides are constant). The "formable" qualifier makes the condition a
// greatest fixpoint: queries whose producers cannot themselves join a
// combined query are pruned, so a partially-arrived cycle waits for its
// missing members rather than receiving a premature empty answer.
//
// Donald's postcondition FlightRes('Daffy', x, y) unifies with no head
// produced by Mickey's or Minnie's queries (constant mismatch in the name
// position) on any database, so Donald's query fails and his transaction
// waits — whereas a query whose posts all have unifiable, transitively
// formable producers but whose combined evaluation selects nothing gets an
// empty answer and its transaction proceeds.
func FormableSet(queries []*Query) []bool {
	alive := make([]bool, len(queries))
	for i := range alive {
		alive[i] = true
	}
	for changed := true; changed; {
		changed = false
		for qi, q := range queries {
			if !alive[qi] {
				continue
			}
			for _, p := range q.Post {
				if !hasUnifiableProducer(queries, alive, qi, p) {
					alive[qi] = false
					changed = true
					break
				}
			}
		}
	}
	return alive
}

// CanFormCombined is FormableSet for a single query.
func CanFormCombined(queries []*Query, qi int) bool {
	return FormableSet(queries)[qi]
}

// hasUnifiableProducer reports whether any other alive pending query has a
// head atom unifiable with post atom p of query qi.
func hasUnifiableProducer(queries []*Query, alive []bool, qi int, p Atom) bool {
	for qj, q := range queries {
		if qj == qi || !alive[qj] {
			continue
		}
		for _, h := range q.Head {
			if atomsUnify(p, h) {
				return true
			}
		}
	}
	return false
}

// atomsUnify reports syntactic unifiability of two atoms: same relation and
// arity, and wherever both arguments are constants they must be equal.
// (Variables unify with anything; repeated-variable consistency is not
// checked — this is the conservative, database-independent test.)
func atomsUnify(a, b Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].IsVar && !b.Args[i].IsVar && !a.Args[i].Value.Equal(b.Args[i].Value) {
			return false
		}
	}
	return true
}
