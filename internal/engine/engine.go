// Package engine evaluates pick-element XMAS queries over XML documents —
// the runtime of the MIX mediator. The semantics follow Section 2.1:
//
//   - the pick-variable binds to every element for which the tree condition
//     embeds into the document;
//   - the picked elements are grouped, in document order (depth-first,
//     left-to-right), under a fresh root element named by the view;
//   - sibling conditions bind to distinct children of their parent's match
//     (the paper's Section 4.2 assumption), and "!=" constraints require
//     the bound elements' IDs to differ;
//   - a qualifier condition ([<journal/>]) is an existential filter: it
//     must embed into some child but does not consume one, so it is exempt
//     from the distinct-children rule;
//   - a recursive step <name*> matches along a chain of name-elements of
//     any depth (Example 3.5).
//
// The condition tree must embed starting at the document root: the root
// condition constrains the root element, as in the paper's examples where
// the outermost <department> condition describes the source document type.
package engine

import (
	"fmt"
	"slices"

	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// Eval runs the query against the document and returns the view document:
// a root element named q.Name whose children are (copies of) the elements
// the pick-variable binds to, in document order. An unsatisfied condition
// yields an empty view, not an error.
func Eval(q *xmas.Query, doc *xmlmodel.Document) (*xmlmodel.Document, error) {
	if errs := q.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("engine: invalid query: %v", errs[0])
	}
	if doc == nil || doc.Root == nil {
		return nil, fmt.Errorf("engine: empty document")
	}
	picks, err := EvalElements(q, doc)
	if err != nil {
		return nil, err
	}
	out := EmptyResult(q)
	for _, e := range picks {
		out.Root.Children = append(out.Root.Children, e.Clone())
	}
	return out, nil
}

// EmptyResult returns the view document Eval produces when no element
// binds the pick-variable: a childless root named by the view. Fast paths
// that answer a query without evaluating it (the mediator's unsatisfiable
// skip, per-part pruning that drops every part) MUST build their result
// through this function so their output is bit-identical to a genuine
// zero-match evaluation.
func EmptyResult(q *xmas.Query) *xmlmodel.Document {
	return &xmlmodel.Document{DocType: q.Name, Root: &xmlmodel.Element{Name: q.Name}}
}

// EvalElements returns the elements (of the original document, not copies)
// that the pick-variable binds to, in document order.
func EvalElements(q *xmas.Query, doc *xmlmodel.Document) ([]*xmlmodel.Element, error) {
	path, err := q.PathToPick()
	if err != nil {
		return nil, err
	}
	m := newMatcher(q, path)
	m.eval(doc.Root)
	return m.picks, nil
}

// Matches reports whether the query's condition embeds into the document at
// all (i.e. whether the view would be non-empty for at least one binding,
// or — for queries whose pick condition is optional — whether the root
// condition holds). It is used by tests and by the mediator's classifier
// cross-checks.
func Matches(q *xmas.Query, doc *xmlmodel.Document) bool {
	picks, err := EvalElements(q, doc)
	return err == nil && len(picks) > 0
}

type feasKey struct {
	c *xmas.Cond
	e *xmlmodel.Element
}

// matcher evaluates one query over one document. Its walk keeps the
// current element's ancestor chain (chain, with each element's index among
// its parent's children in at) and, on a stack, the indices into path of
// the path conditions each chain element can match by name.
type matcher struct {
	path   []*xmas.Cond
	chain  []*xmlmodel.Element
	at     []int
	states []int
	env    env
	picks  []*xmlmodel.Element
	// feasible caches structural matches ignoring the chain and !=
	// constraints; it prunes the backtracking search.
	feasible map[feasKey]bool
	// embeds counts embedding attempts, for the complexity tests.
	embeds int
}

func newMatcher(q *xmas.Query, path []*xmas.Cond) *matcher {
	return &matcher{
		path:     path,
		env:      env{vars: map[string]*xmlmodel.Element{}, neq: q.Neq},
		feasible: map[feasKey]bool{},
	}
}

// eval collects into m.picks every element the pick-variable binds to. One
// preorder walk finds the candidates, in document order by construction:
// the root can match path[0]; a child of an element that can match path[i]
// can match path[i+1] if its name fits, and path[i] again if that step is
// recursive. Each element that can match the pick condition is then
// verified by a full embedding from the root along its own chain.
func (m *matcher) eval(root *xmlmodel.Element) {
	if m.path[0].MatchesName(root.Name) {
		m.states = append(m.states, 0)
		m.walk(root, 0, 0)
	}
}

// walk visits e, the child at index pos of its parent, whose path
// conditions are m.states[lo:] in ascending order.
func (m *matcher) walk(e *xmlmodel.Element, pos, lo int) {
	m.chain, m.at = append(m.chain, e), append(m.at, pos)
	hi, last := len(m.states), len(m.path)-1
	if m.states[hi-1] == last && m.verify() {
		m.picks = append(m.picks, e)
	}
	for j, k := range e.Children {
		for _, i := range m.states[lo:hi] {
			if m.path[i].Recursive && m.path[i].MatchesName(k.Name) {
				m.pushState(hi, i)
			}
			if i < last && m.path[i+1].MatchesName(k.Name) {
				m.pushState(hi, i+1)
			}
		}
		if len(m.states) > hi {
			m.walk(k, j, hi)
			m.states = m.states[:hi]
		}
	}
	m.chain, m.at = m.chain[:len(m.chain)-1], m.at[:len(m.at)-1]
}

// pushState adds i to the state set starting at m.states[lo]. States arrive
// in non-decreasing order, so a duplicate can only repeat the last one.
func (m *matcher) pushState(lo, i int) {
	if n := len(m.states); n == lo || m.states[n-1] != i {
		m.states = append(m.states, i)
	}
}

// verify reports whether the query embeds with the pick condition bound to
// the last element of the chain.
func (m *matcher) verify() bool {
	clear(m.env.vars)
	return m.embed(m.path[0], m.chain[0], 0, 0)
}

// env tracks variable bindings during an embedding attempt and checks the
// "!=" constraints incrementally: a violation is detected as soon as both
// sides of a pair are bound.
type env struct {
	vars map[string]*xmlmodel.Element
	neq  [][2]string
}

func (v *env) bind(name string, e *xmlmodel.Element) bool {
	if name == "" {
		return true
	}
	v.vars[name] = e
	for _, pair := range v.neq {
		a, aok := v.vars[pair[0]]
		b, bok := v.vars[pair[1]]
		if aok && bok && a == b {
			return false
		}
	}
	return true
}

func (v *env) unbind(name string) {
	if name != "" {
		delete(v.vars, name)
	}
}

// embed attempts to match condition c at element e under the current
// environment. A path condition (i >= 0, c is m.path[i]) matches only
// along the candidate's chain, with e = m.chain[d]: each path condition
// matches at a child of its parent condition's match (a recursive one
// possibly further down a chain) and the pick lies at or below it, so its
// match is an ancestor-or-self of the pick. Off-path conditions pass
// i = -1 and may match anywhere.
func (m *matcher) embed(c *xmas.Cond, e *xmlmodel.Element, i, d int) bool {
	m.embeds++
	if !m.structuralOK(c, e) {
		return false
	}
	if c.Recursive {
		return m.embedRecursiveCond(c, e, i, d)
	}
	return m.embedHere(c, e, i, d)
}

// embedRecursiveCond matches a recursive condition: its subconditions hold
// at e, or the condition re-embeds at a child of e with a matching name.
// The pick binds the element where the subconditions finally hold.
func (m *matcher) embedRecursiveCond(c *xmas.Cond, e *xmlmodel.Element, i, d int) bool {
	if m.embedHere(c, e, i, d) {
		return true
	}
	kids, ki, kd := e.Children, -1, 0
	if i >= 0 {
		if d+1 == len(m.chain) {
			return false
		}
		kids, ki, kd = m.chain[d+1:d+2], i, d+1
	}
	for _, k := range kids {
		if c.MatchesName(k.Name) && m.structuralOK(c, k) && m.embedRecursiveCond(c, k, ki, kd) {
			return true
		}
	}
	return false
}

// embedHere binds c's variables to e and matches c's subconditions against
// distinct children of e.
func (m *matcher) embedHere(c *xmas.Cond, e *xmlmodel.Element, i, d int) bool {
	if i == len(m.path)-1 && d != len(m.chain)-1 {
		return false // the pick condition binds only the candidate
	}
	if c.HasText {
		return e.IsText && e.Text == c.Text
	}
	en := &m.env
	if !en.bind(c.Var, e) {
		en.unbind(c.Var)
		return false
	}
	if !en.bind(c.IDVar, e) {
		en.unbind(c.Var)
		en.unbind(c.IDVar)
		return false
	}
	var used [8]int
	if m.assignChildren(c.Children, e, 0, used[:0], i, d) {
		return true
	}
	en.unbind(c.Var)
	en.unbind(c.IDVar)
	return false
}

// assignChildren finds an injective assignment of the non-qualifier
// conditions to the children of e (used holds the indices already taken),
// each assigned pair embedding successfully. Qualifier conditions are
// existential: they must embed into some child but do not consume it, so
// they never compete with siblings (or each other) for a witness. They
// still take part in the backtracking so that a variable bound under a
// qualifier can drive "!=" constraints. When e is a path condition's match
// (i >= 0), the next path condition is tried only against the next element
// of the chain.
func (m *matcher) assignChildren(conds []*xmas.Cond, e *xmlmodel.Element, n int, used []int, i, d int) bool {
	if n == len(conds) {
		return true
	}
	c := conds[n]
	lo, hi, ci, cd := 0, len(e.Children), -1, 0
	if i >= 0 && i+1 < len(m.path) && c == m.path[i+1] {
		if d+1 == len(m.chain) {
			return false
		}
		lo, ci, cd = m.at[d+1], i+1, d+1
		hi = lo + 1
	}
	for j := lo; j < hi; j++ {
		k := e.Children[j]
		if (!c.Qualifier && slices.Contains(used, j)) || !c.MatchesName(k.Name) {
			continue
		}
		if m.embed(c, k, ci, cd) {
			rest := used
			if !c.Qualifier {
				rest = append(used, j)
			}
			if m.assignChildren(conds, e, n+1, rest, i, d) {
				return true
			}
			// embed left bindings in place on success only; on the failed
			// continuation we must undo them.
			m.unbindSubtree(c)
		}
	}
	return false
}

// unbindSubtree clears every variable bound anywhere under c; used when
// backtracking over a previously successful partial embedding.
func (m *matcher) unbindSubtree(c *xmas.Cond) {
	for _, v := range c.Vars() {
		delete(m.env.vars, v)
	}
}

// structuralOK reports whether c can match e ignoring variables, the chain
// and != constraints — a necessary condition used to prune backtracking.
// Results are memoized across the whole evaluation.
func (m *matcher) structuralOK(c *xmas.Cond, e *xmlmodel.Element) bool {
	if !c.MatchesName(e.Name) {
		return false
	}
	key := feasKey{c, e}
	if v, ok := m.feasible[key]; ok {
		return v
	}
	m.feasible[key] = true // assume feasible on cycles (recursive conds revisit)
	ok := m.structuralHere(c, e)
	if !ok && c.Recursive {
		for _, k := range e.Children {
			if c.MatchesName(k.Name) && m.structuralOK(c, k) {
				ok = true
				break
			}
		}
	}
	m.feasible[key] = ok
	return ok
}

func (m *matcher) structuralHere(c *xmas.Cond, e *xmlmodel.Element) bool {
	if c.HasText {
		return e.IsText && e.Text == c.Text
	}
	if len(c.Children) == 0 {
		return true
	}
	if e.IsText {
		return false
	}
	// Injective feasibility via backtracking on the (small) bipartite
	// compatibility relation. Qualifier children are existential and do
	// not consume a child slot.
	var rec func(i int, used map[int]bool) bool
	rec = func(i int, used map[int]bool) bool {
		if i == len(c.Children) {
			return true
		}
		cc := c.Children[i]
		for j, k := range e.Children {
			if (!cc.Qualifier && used[j]) || !m.structuralOK(cc, k) {
				continue
			}
			if cc.Qualifier {
				return rec(i+1, used)
			}
			used[j] = true
			if rec(i+1, used) {
				return true
			}
			used[j] = false
		}
		return false
	}
	return rec(0, map[int]bool{})
}
