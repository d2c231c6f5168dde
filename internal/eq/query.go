package eq

import (
	"errors"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Query is an entangled query in the intermediate representation {C} H ⇐ B.
//
// The SQL form
//
//	SELECT 'Mickey', fno, fdate INTO ANSWER Reservation
//	WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
//	  AND ('Minnie', fno, fdate) IN ANSWER Reservation
//	CHOOSE 1
//
// compiles to
//
//	Head: Reservation(Mickey, ?fno, ?fdate)
//	Post: Reservation(Minnie, ?fno, ?fdate)
//	Body: Flights(?fno, ?fdate, ?dest)   Where: ?dest = 'LA'
type Query struct {
	// Head is the query's own contribution to the ANSWER relation(s).
	Head []Atom
	// Post is the postcondition: atoms that must be present in the ANSWER
	// relation(s) — contributed by entanglement partners.
	Post []Atom
	// Body is the database part of the WHERE clause (select-project-join).
	Body []Atom
	// Where holds comparison constraints over body variables.
	Where []Constraint
	// Bind names the variables whose values the transaction wants back as
	// host variables (the AS @var syntax). May be empty.
	Bind []string
	// Choose limits the number of groundings selected for this query; the
	// paper fixes it to 1 and so do we (0 is treated as 1).
	Choose int
}

// Validate checks the query's static well-formedness: non-empty head and
// body, range restriction (every variable in Head, Post, or Bind appears in
// the Body), and positive Choose.
func (q *Query) Validate() error {
	if len(q.Head) == 0 {
		return errors.New("eq: query has no head atoms")
	}
	if len(q.Body) == 0 {
		return errors.New("eq: query has no body atoms")
	}
	if q.Choose < 0 || q.Choose > 1 {
		return errors.New("eq: CHOOSE " + strconv.Itoa(q.Choose) + " unsupported (only CHOOSE 1)")
	}
	bodyVars := make(map[string]bool)
	for _, a := range q.Body {
		a.vars(bodyVars)
	}
	check := func(where string, vars map[string]bool) error {
		for v := range vars {
			if !bodyVars[v] {
				return errors.New("eq: range restriction violated: variable " + v + " in " + where + " does not appear in the body")
			}
		}
		return nil
	}
	headVars := make(map[string]bool)
	for _, a := range q.Head {
		a.vars(headVars)
	}
	if err := check("head", headVars); err != nil {
		return err
	}
	postVars := make(map[string]bool)
	for _, a := range q.Post {
		a.vars(postVars)
	}
	if err := check("postcondition", postVars); err != nil {
		return err
	}
	for _, b := range q.Bind {
		if !bodyVars[b] {
			return errors.New("eq: bind variable @" + b + " does not appear in the body")
		}
	}
	return nil
}

// BodyTables returns the distinct database relations the body grounds on,
// in first-mention order. These are the grounding-read targets — the tables
// the transaction (and, via quasi-reads, its entanglement partners) must
// see a stable view of.
func (q *Query) BodyTables() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range q.Body {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	return out
}

// AnswerRelations returns the distinct ANSWER relations mentioned by head
// and postcondition, in first-mention order.
func (q *Query) AnswerRelations() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range append(append([]Atom{}, q.Head...), q.Post...) {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	return out
}

// String renders the query in the paper's {C} H ⇐ B notation.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, a := range q.Post {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(a.String())
	}
	b.WriteString("} ")
	for i, a := range q.Head {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(a.String())
	}
	b.WriteString(" ⇐ ")
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(a.String())
	}
	for _, c := range q.Where {
		b.WriteString(" ∧ ")
		b.WriteString(c.String())
	}
	return b.String()
}

// Grounding is one valuation of a query's body: the instantiated head and
// postcondition atoms plus the valuation itself (for host-variable
// binding).
type Grounding struct {
	Head []GroundAtom
	Post []GroundAtom
	Val  Valuation

	// atomKeys are the head then post atom keys, substrings of the
	// grounding's deduplication identity (see appendIdent). The grounding
	// executor writes them once, when it builds the grounding; nothing
	// writes them afterwards, so a grounding shared through the engine's
	// grounding cache is safe to read from any run.
	atomKeys []string
}

// newGrounding copies the scratch atoms (heads first, nh of them) into a
// grounding that owns them, keyed by ident, whose atom key spans appendIdent
// recorded.
func newGrounding(atoms []GroundAtom, nh int, val Valuation, ident string, spans []int) *Grounding {
	n := 0
	for _, a := range atoms {
		n += len(a.Args)
	}
	args := make(types.Tuple, n)
	own := make([]GroundAtom, len(atoms))
	for i, a := range atoms {
		k := copy(args, a.Args)
		own[i] = GroundAtom{Rel: a.Rel, Args: args[:k:k]}
		args = args[k:]
	}
	g := &Grounding{Head: own[:nh:nh], Val: val, atomKeys: splitKeys(ident, spans)}
	if nh < len(own) {
		g.Post = own[nh:]
	}
	return g
}

// keys returns the grounding's head then post atom keys. A grounding the
// executor built carries them; one decoded from a cross-shard offer does
// not, and they are computed here without being stored, so a shared
// grounding is never written.
func (g *Grounding) keys() []string {
	if g.atomKeys != nil {
		return g.atomKeys
	}
	ident, spans := appendIdent(nil, g.Head, g.Post, nil)
	return splitKeys(string(ident), spans)
}

// appendIdent appends a grounding's identity to dst: every head atom key
// followed by '#', then '|', then every post atom key followed by '#'. It
// appends each atom key's [start, end) offsets in dst to spans.
func appendIdent(dst []byte, head, post []GroundAtom, spans []int) ([]byte, []int) {
	for i, atoms := range [2][]GroundAtom{head, post} {
		if i == 1 {
			dst = append(dst, '|')
		}
		for _, a := range atoms {
			start := len(dst)
			dst = a.AppendKey(dst)
			spans = append(spans, start, len(dst))
			dst = append(dst, '#')
		}
	}
	return dst, spans
}

// splitKeys slices the atom keys out of ident by their spans.
func splitKeys(ident string, spans []int) []string {
	keys := make([]string, len(spans)/2)
	for i := range keys {
		keys[i] = ident[spans[2*i]:spans[2*i+1]]
	}
	return keys
}
