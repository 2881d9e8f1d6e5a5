package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// TestBacktrackingStress: many same-named children with nested conditions
// exercise the injective-assignment search; the memoized structural check
// must keep it fast. (The guard is the test timeout.)
func TestBacktrackingStress(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<r>`)
	// 40 groups; only the last two contain the marker.
	for i := 0; i < 40; i++ {
		if i >= 38 {
			fmt.Fprintf(&b, `<g id="g%d"><m/><x/></g>`, i)
		} else {
			fmt.Fprintf(&b, `<g id="g%d"><x/></g>`, i)
		}
	}
	b.WriteString(`</r>`)
	doc := parseDoc(t, b.String())
	q := xmas.MustParse(`v = SELECT G WHERE <r> <g id=A><m/></g> G:<g id=B><m/></g> </r> AND A != B`)
	start := time.Now()
	picks, err := EvalElements(q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("backtracking took %v; memoization is broken", time.Since(start))
	}
	if len(picks) != 2 || picks[0].ID != "g38" || picks[1].ID != "g39" {
		ids := []string{}
		for _, p := range picks {
			ids = append(ids, p.ID)
		}
		t.Errorf("picks = %v, want [g38 g39]", ids)
	}
}

func TestNeqBetweenAncestorAndDescendant(t *testing.T) {
	// Ancestor and descendant are always distinct elements; the constraint
	// is trivially satisfied.
	doc := parseDoc(t, `<r id="r1"><a id="a1"><b id="b1"/></a></r>`)
	q := xmas.MustParse(`v = SELECT B WHERE <r> <a id=OUTER> B:<b id=INNER/> </a> </r> AND OUTER != INNER`)
	ids := pickIDs(t, q.String(), doc)
	if strings.Join(ids, ",") != "b1" {
		t.Errorf("picks = %v", ids)
	}
}

func TestMultipleNeqChains(t *testing.T) {
	// Three pairwise-distinct children required.
	doc3 := parseDoc(t, `<r id="r"><g id="g"><m id="1"/><m id="2"/><m id="3"/></g></r>`)
	doc2 := parseDoc(t, `<r id="r"><g id="g"><m id="1"/><m id="2"/></g></r>`)
	q := `v = SELECT G WHERE <r> G:<g> <m id=A/> <m id=B/> <m id=C/> </g> </r> AND A != B AND A != C AND B != C`
	if ids := pickIDs(t, q, doc3); strings.Join(ids, ",") != "g" {
		t.Errorf("3 children: picks = %v", ids)
	}
	if ids := pickIDs(t, q, doc2); len(ids) != 0 {
		t.Errorf("2 children cannot satisfy 3 distinct conditions: %v", ids)
	}
}

func TestRecursiveStepWithDisjunction(t *testing.T) {
	doc := parseDoc(t, `<a id="a1">
	  <b id="b1"><x id="x1"/></b>
	  <a id="a2"><b id="b2"><x id="x2"/></b></a>
	</a>`)
	// Chain over a|b reaches x at any depth.
	q := `v = SELECT X WHERE <a|b*> X:<x/> </>`
	ids := pickIDs(t, q, doc)
	if strings.Join(ids, ",") != "x1,x2" {
		t.Errorf("picks = %v", ids)
	}
}

func TestTextConditionIgnoresElementContent(t *testing.T) {
	doc := parseDoc(t, `<r id="r"><n id="n1"><sub/></n><n id="n2">CS</n></r>`)
	q := `v = SELECT N WHERE <r> N:<n>CS</n> </r>`
	ids := pickIDs(t, q, doc)
	if strings.Join(ids, ",") != "n2" {
		t.Errorf("picks = %v", ids)
	}
}

func TestEmptyTextVsEmptyElement(t *testing.T) {
	// An element with empty element-content does not match a text
	// condition for "" — but our parser canonicalizes; construct directly.
	root := xmlmodel.NewElement("r",
		xmlmodel.NewElement("n"),    // empty element content
		xmlmodel.NewText("n", "CS"), // text CS
	)
	root.Children[0].ID = "empty"
	root.Children[1].ID = "cs"
	doc := &xmlmodel.Document{Root: root}
	q := xmas.MustParse(`v = SELECT N WHERE <r> N:<n>CS</n> </r>`)
	picks, err := EvalElements(q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 1 || picks[0].ID != "cs" {
		t.Errorf("picks = %v", picks)
	}
}

func TestPicksAreDeduplicatedUnderMultipleEmbeddings(t *testing.T) {
	// The pick element matches via several different side-condition
	// embeddings; it must appear once.
	doc := parseDoc(t, `<r id="r"><g id="g"><m id="1"/><m id="2"/><m id="3"/></g></r>`)
	q := `v = SELECT G WHERE <r> G:<g> <m/> </g> </r>`
	ids := pickIDs(t, q, doc)
	if strings.Join(ids, ",") != "g" {
		t.Errorf("picks = %v", ids)
	}
}

func TestWildcardRecursiveStep(t *testing.T) {
	// A recursive wildcard step (any chain of any names) has no concrete
	// syntax, but the engine supports the AST shape; it generalizes
	// XML-QL's descendant axis.
	doc := parseDoc(t, `<a id="1"><b id="2"><c id="3"><leaf id="4"/></c></b></a>`)
	q := &xmas.Query{
		Name:    "v",
		PickVar: "X",
		Root: &xmas.Cond{
			Recursive: true, // wildcard names + recursive = descend anywhere
			Children:  []*xmas.Cond{{Names: []string{"leaf"}, Var: "X"}},
		},
	}
	picks, err := EvalElements(q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 1 || picks[0].ID != "4" {
		t.Errorf("picks = %v", picks)
	}
}

// Qualifier semantics (Section 4.2 analogue of XPath qualifiers): a
// bracketed condition filters the parent existentially but never claims a
// child slot of its own — in particular it may share its witness with a
// regular sibling condition.
func TestQualifierFiltersWithoutConsuming(t *testing.T) {
	doc := parseDoc(t, `<lib>
	  <item id="i1"><book/></item>
	  <item id="i2"><disc/></item>
	</lib>`)
	// Only items that (existentially) hold a book qualify.
	ids := pickIDs(t, `r = SELECT X WHERE <lib> X:<item> [<book/>] </item> </lib>`, doc)
	if len(ids) != 1 || ids[0] != "i1" {
		t.Errorf("qualifier pick = %v, want [i1]", ids)
	}
}

func TestQualifierSharesWitnessWithSibling(t *testing.T) {
	// i1 has a single book child. The regular <book/> condition consumes
	// it; the qualifier [<book/>] must still be satisfiable by that same
	// child (qualifiers do not compete for distinct children), so i1
	// matches. Two regular <book/> siblings, by contrast, need two
	// distinct children and must reject i1.
	doc := parseDoc(t, `<lib><item id="i1"><book/></item></lib>`)
	shared := pickIDs(t, `r = SELECT X WHERE <lib> X:<item> <book/> [<book/>] </item> </lib>`, doc)
	if len(shared) != 1 || shared[0] != "i1" {
		t.Errorf("shared-witness pick = %v, want [i1]", shared)
	}
	distinct := pickIDs(t, `r = SELECT X WHERE <lib> X:<item> <book/> <book/> </item> </lib>`, doc)
	if len(distinct) != 0 {
		t.Errorf("two regular conditions matched a single child: %v", distinct)
	}
}

func TestRecursivePickBindsWhereItsConditionsHold(t *testing.T) {
	// The recursive pick condition <a*> <b/> </a> enters the chain at the
	// outer a but its subcondition holds only at the inner a, which is
	// where the pick binds.
	doc := parseDoc(t, `<c><a id="outer"><a id="inner"><b/></a></a></c>`)
	ids := pickIDs(t, `v = SELECT X WHERE <c> X:<a*> <b/> </a> </c>`, doc)
	if strings.Join(ids, ",") != "inner" {
		t.Errorf("picks = %v, want [inner]", ids)
	}
}

// flatRoot builds <r> with n entry children; every other entry has a kind,
// every fourth a name with text t.
func flatRoot(n int) *xmlmodel.Document {
	root := xmlmodel.NewElement("r")
	for i := 0; i < n; i++ {
		e := xmlmodel.NewElement("entry", xmlmodel.NewText("name", fmt.Sprintf("t%d", i%4)))
		if i%2 == 0 {
			e.Children = append(e.Children, xmlmodel.NewElement("kind"))
		}
		root.Children = append(root.Children, e)
	}
	return &xmlmodel.Document{Root: root}
}

// TestEmbedAttemptsGrowLinearlyInWidth pins the evaluation's complexity by
// counting embedding attempts rather than timing: verifying a candidate
// tries its path conditions only along its own ancestor chain, so four
// times the root's children cost about four times the attempts, not
// sixteen.
func TestEmbedAttemptsGrowLinearlyInWidth(t *testing.T) {
	const n = 48
	for _, tc := range []struct {
		query string
		picks int // at width n
	}{
		{`v = SELECT X WHERE <r> X:<entry/> </r>`, n},
		{`v = SELECT X WHERE <r> X:<entry> [<kind/>] </entry> </r>`, n / 2},
		{`v = SELECT X WHERE <r> X:<entry><name>t0</name></entry> </r>`, n / 4},
	} {
		q := xmas.MustParse(tc.query)
		path, err := q.PathToPick()
		if err != nil {
			t.Fatal(err)
		}
		embeds := func(width int) (int, int) {
			m := newMatcher(q, path)
			m.eval(flatRoot(width).Root)
			return m.embeds, len(m.picks)
		}
		small, picks := embeds(n)
		large, _ := embeds(4 * n)
		if picks != tc.picks {
			t.Errorf("%s: %d picks at width %d, want %d", tc.query, picks, n, tc.picks)
		}
		if growth := float64(large) / float64(small); growth > 4.5 {
			t.Errorf("%s: %d embed attempts at width %d, %d at width %d: grew %.1fx, want at most 4.5x",
				tc.query, small, n, large, 4*n, growth)
		}
	}
}
