package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// referenceEval is an independent, brute-force implementation of the
// pick-element semantics: it enumerates every embedding of the condition
// tree (sibling conditions on pairwise-distinct children, recursive steps
// expanded by chain, != constraints on the final assignment) and collects
// the pick bindings. Exponential and only fit for tiny inputs — which is
// exactly what a differential-testing oracle should be: too simple to
// share bugs with the optimized engine.
func referenceEval(q *xmas.Query, doc *xmlmodel.Document) []*xmlmodel.Element {
	path, err := q.PathToPick()
	if err != nil {
		return nil
	}
	pick := path[len(path)-1]
	var picks []*xmlmodel.Element
	seen := map[*xmlmodel.Element]bool{}
	for _, asg := range embeddings(q.Root, doc.Root) {
		if !neqOK(q, asg) {
			continue
		}
		e := asg[pick]
		if e != nil && !seen[e] {
			seen[e] = true
			picks = append(picks, e)
		}
	}
	// Document order.
	pos := map[*xmlmodel.Element]int{}
	i := 0
	doc.Root.Walk(func(e *xmlmodel.Element) bool { pos[e] = i; i++; return true })
	for a := 0; a < len(picks); a++ {
		for b := a + 1; b < len(picks); b++ {
			if pos[picks[b]] < pos[picks[a]] {
				picks[a], picks[b] = picks[b], picks[a]
			}
		}
	}
	return picks
}

type assignment map[*xmas.Cond]*xmlmodel.Element

// embeddings returns every assignment of the condition subtree rooted at c
// when matched against element e (empty slice = no embedding).
func embeddings(c *xmas.Cond, e *xmlmodel.Element) []assignment {
	if !c.MatchesName(e.Name) {
		return nil
	}
	if c.Recursive {
		// Match here, or descend along a matching chain.
		out := embedHereRef(c, e)
		for _, k := range e.Children {
			if c.MatchesName(k.Name) {
				out = append(out, embeddings(c, k)...)
			}
		}
		return out
	}
	return embedHereRef(c, e)
}

func embedHereRef(c *xmas.Cond, e *xmlmodel.Element) []assignment {
	if c.HasText {
		if e.IsText && e.Text == c.Text {
			return []assignment{{c: e}}
		}
		return nil
	}
	// Choose pairwise-distinct children for the subconditions, in every
	// possible way.
	results := []assignment{{}}
	used := make([]bool, len(e.Children))
	var rec func(i int, acc assignment) []assignment
	rec = func(i int, acc assignment) []assignment {
		if i == len(c.Children) {
			cp := assignment{}
			for k, v := range acc {
				cp[k] = v
			}
			return []assignment{cp}
		}
		var out []assignment
		// A qualifier is existential: it neither needs nor consumes a
		// child of its own.
		cc := c.Children[i]
		for j, k := range e.Children {
			if used[j] && !cc.Qualifier {
				continue
			}
			for _, sub := range embeddings(cc, k) {
				if !cc.Qualifier {
					used[j] = true
				}
				merged := assignment{}
				for a, b := range acc {
					merged[a] = b
				}
				for a, b := range sub {
					merged[a] = b
				}
				out = append(out, rec(i+1, merged)...)
				if !cc.Qualifier {
					used[j] = false
				}
			}
		}
		return out
	}
	if len(c.Children) > 0 {
		results = rec(0, assignment{})
	}
	for i := range results {
		results[i][c] = e
	}
	return results
}

func neqOK(q *xmas.Query, asg assignment) bool {
	// Resolve variables to elements.
	vars := map[string]*xmlmodel.Element{}
	for c, e := range asg {
		if c.Var != "" {
			vars[c.Var] = e
		}
		if c.IDVar != "" {
			vars[c.IDVar] = e
		}
	}
	for _, pair := range q.Neq {
		a, aok := vars[pair[0]]
		b, bok := vars[pair[1]]
		if aok && bok && a == b {
			return false
		}
	}
	return true
}

// chooser supplies the random generators' decisions: a seeded math/rand
// stream in the differential test, the fuzz input in the fuzz target.
type chooser interface{ Intn(n int) int }

// byteChooser replays decisions from bytes; once they run out every
// decision is 0, which ends every generator loop.
type byteChooser []byte

func (b *byteChooser) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// recordingChooser draws from r and records each decision as a byte, so a
// byteChooser over the record replays the same generator run.
type recordingChooser struct {
	r   *rand.Rand
	out []byte
}

func (c *recordingChooser) Intn(n int) int {
	v := c.r.Intn(n)
	c.out = append(c.out, byte(v))
	return v
}

var refNames = []string{"a", "b", "c"}

// randomDocForRef builds small random documents over a fixed name pool:
// at most three children per element, so at most 40 elements at depth 3.
func randomDocForRef(r chooser, depth int) *xmlmodel.Element {
	e := xmlmodel.NewElement(refNames[r.Intn(len(refNames))])
	if depth <= 0 {
		if r.Intn(3) == 0 {
			e.IsText = true
			e.Text = []string{"x", "y"}[r.Intn(2)]
		}
		return e
	}
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		e.Children = append(e.Children, randomDocForRef(r, depth-1))
	}
	return e
}

// wideDocForRef builds a document whose root has 8 to 16 children, so the
// pick path's conditions must find their chain among many siblings.
func wideDocForRef(r chooser) *xmlmodel.Element {
	e := xmlmodel.NewElement(refNames[r.Intn(len(refNames))])
	n := 8 + r.Intn(9)
	for i := 0; i < n; i++ {
		e.Children = append(e.Children, randomDocForRef(r, 2))
	}
	return e
}

// randomQueryForRef builds a small random pick-element query over the same
// name pool: path steps (the pick included) are sometimes recursive, side
// conditions sometimes qualifiers or text conditions, and the pick
// sometimes demands two distinct same-named children.
func randomQueryForRef(r chooser) *xmas.Query {
	pickDepth := 1 + r.Intn(2)
	var build func(d int) *xmas.Cond
	build = func(d int) *xmas.Cond {
		c := &xmas.Cond{}
		switch r.Intn(4) {
		case 0: // wildcard
		case 1:
			c.Names = []string{refNames[r.Intn(3)], refNames[r.Intn(3)]}
			if c.Names[0] == c.Names[1] {
				c.Names = c.Names[:1]
			}
		default:
			c.Names = []string{refNames[r.Intn(3)]}
		}
		c.Recursive = r.Intn(4) == 0
		if d == pickDepth {
			c.Var = "P"
			if r.Intn(3) == 0 {
				c.Children = append(c.Children, &xmas.Cond{Names: []string{refNames[r.Intn(3)]}, Qualifier: r.Intn(2) == 0})
			}
			return c
		}
		c.Children = append(c.Children, build(d+1))
		if r.Intn(3) == 0 {
			side := &xmas.Cond{Names: []string{refNames[r.Intn(3)]}, Qualifier: r.Intn(3) == 0}
			if r.Intn(3) == 0 {
				side.HasText, side.Text = true, "x"
			}
			c.Children = append(c.Children, side)
		}
		return c
	}
	q := &xmas.Query{Name: "v", PickVar: "P", Root: build(0)}
	// Occasionally demand two distinct same-named children of the pick.
	if r.Intn(3) == 0 {
		path, _ := q.PathToPick()
		if path != nil {
			pick := path[len(path)-1]
			n := refNames[r.Intn(3)]
			pick.Children = append(pick.Children,
				&xmas.Cond{Names: []string{n}, IDVar: "I1"},
				&xmas.Cond{Names: []string{n}, IDVar: "I2"})
			q.Neq = append(q.Neq, [2]string{"I1", "I2"})
		}
	}
	if errs := q.Validate(); len(errs) > 0 {
		return nil
	}
	return q
}

// addRootNeq gives the root condition two more side conditions whose
// matches must be distinct root children, one of them sometimes a
// qualifier.
func addRootNeq(r chooser, q *xmas.Query) {
	q.Root.Children = append(q.Root.Children,
		&xmas.Cond{Names: []string{refNames[r.Intn(3)]}, IDVar: "R1"},
		&xmas.Cond{Names: []string{refNames[r.Intn(3)]}, IDVar: "R2", Qualifier: r.Intn(2) == 0})
	q.Neq = append(q.Neq, [2]string{"R1", "R2"})
}

// agreesWithReference compares the engine with the oracle on one input and
// reports whether the answer was non-empty.
func agreesWithReference(t *testing.T, label string, q *xmas.Query, doc *xmlmodel.Document) bool {
	t.Helper()
	got, err := EvalElements(q, doc)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := referenceEval(q, doc)
	if len(got) != len(want) {
		t.Fatalf("%s: engine %d picks, reference %d\nquery:\n%s\ndoc: %s",
			label, len(got), len(want), q, xmlmodel.MarshalElement(doc.Root, -1))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s: pick %d differs\nquery:\n%s\ndoc: %s",
				label, j, q, xmlmodel.MarshalElement(doc.Root, -1))
		}
	}
	return len(got) > 0
}

// TestEngineAgreesWithReference is the engine's differential oracle: on
// thousands of random (document, query) pairs the optimized backtracking
// engine must return exactly the brute-force semantics. The wide rounds
// give the root 8 to 16 children and two more root side conditions tied
// by "!=".
func TestEngineAgreesWithReference(t *testing.T) {
	r := rand.New(rand.NewSource(1999)) // the year of the paper
	const rounds, wideRounds = 3000, 600
	checked, wideChecked := 0, 0
	for i := 0; i < rounds+wideRounds; i++ {
		q := randomQueryForRef(r)
		if q == nil {
			continue
		}
		if i < rounds {
			doc := &xmlmodel.Document{Root: randomDocForRef(r, 3)}
			if agreesWithReference(t, fmt.Sprintf("round %d", i), q, doc) {
				checked++
			}
			continue
		}
		if r.Intn(2) == 0 {
			addRootNeq(r, q)
		}
		doc := &xmlmodel.Document{Root: wideDocForRef(r)}
		if agreesWithReference(t, fmt.Sprintf("wide round %d", i), q, doc) {
			wideChecked++
		}
	}
	if checked < rounds/20 || wideChecked < wideRounds/20 {
		t.Fatalf("only %d/%d rounds and %d/%d wide rounds had non-empty results; generator too weak",
			checked, rounds, wideChecked, wideRounds)
	}
	t.Logf("%d rounds, %d with non-empty results; %d wide rounds, %d non-empty",
		rounds, checked, wideRounds, wideChecked)
}

func TestReferenceSelfCheck(t *testing.T) {
	// The oracle itself must agree with a hand-computed case.
	doc, _, err := xmlmodel.Parse(`<a><b id="1"><c/></b><b id="2"/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	q := xmas.MustParse(`v = SELECT X WHERE <a> X:<b><c/></b> </a>`)
	picks := referenceEval(q, doc)
	ids := []string{}
	for _, p := range picks {
		ids = append(ids, p.ID)
	}
	if strings.Join(ids, ",") != "1" {
		t.Errorf("reference picks = %v", ids)
	}
	// A qualifier shares its witness with a regular sibling.
	doc, _, err = xmlmodel.Parse(`<lib><item id="i1"><book/></item></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	shared := referenceEval(xmas.MustParse(`r = SELECT X WHERE <lib> X:<item> <book/> [<book/>] </item> </lib>`), doc)
	distinct := referenceEval(xmas.MustParse(`r = SELECT X WHERE <lib> X:<item> <book/> <book/> </item> </lib>`), doc)
	if len(shared) != 1 || len(distinct) != 0 {
		t.Errorf("reference qualifier picks = %d shared, %d distinct; want 1, 0", len(shared), len(distinct))
	}
}
