package xmlmodel

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimple(t *testing.T) {
	doc, dt, err := Parse(`<?xml version="1.0"?>
<!DOCTYPE department [
  <!ELEMENT department (name, professor+)>
]>
<department>
  <name>CS</name>
  <professor id="p1">
    <firstName>Yannis</firstName>
    <lastName>Papakonstantinou</lastName>
  </professor>
</department>`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if dt == nil || dt.Root != "department" {
		t.Fatalf("doctype = %+v, want root department", dt)
	}
	if !strings.Contains(dt.Internal, "<!ELEMENT department") {
		t.Errorf("internal subset not captured: %q", dt.Internal)
	}
	if doc.Root.Name != "department" || len(doc.Root.Children) != 2 {
		t.Fatalf("root = %v", doc.Root)
	}
	name := doc.Root.Children[0]
	if !name.IsText || name.Text != "CS" {
		t.Errorf("name = %+v, want PCDATA CS", name)
	}
	prof := doc.Root.Children[1]
	if prof.ID != "p1" || len(prof.Children) != 2 {
		t.Errorf("professor = %+v", prof)
	}
}

func TestParseSelfClosingAndComments(t *testing.T) {
	e, err := ParseElement(`<a><!-- c --><b/><c id='x'/><!-- tail --></a>`)
	if err != nil {
		t.Fatalf("ParseElement: %v", err)
	}
	if len(e.Children) != 2 || e.Children[0].Name != "b" || e.Children[1].ID != "x" {
		t.Errorf("got %v", e)
	}
}

func TestParseIgnoresForeignAttributes(t *testing.T) {
	e, err := ParseElement(`<a href="z" id="i7" class="k"></a>`)
	if err != nil {
		t.Fatalf("ParseElement: %v", err)
	}
	if e.ID != "i7" {
		t.Errorf("ID = %q, want i7", e.ID)
	}
}

func TestParseRejectsMixedContent(t *testing.T) {
	_, err := ParseElement(`<a>text<b></b></a>`)
	if err == nil {
		t.Fatal("mixed content should be rejected (Section 2)")
	}
}

func TestParseRejectsMismatchedTags(t *testing.T) {
	for _, bad := range []string{
		`<a></b>`, `<a>`, `<a><b></a></b>`, `<a attr=>x</a>`, `junk`,
		`<a>&bogus;</a>`, `<a><b></b>`,
	} {
		if _, err := ParseElement(bad); err == nil {
			t.Errorf("ParseElement(%q) should fail", bad)
		}
	}
}

func TestParseAnonymousEndTag(t *testing.T) {
	// The paper's query examples use </> as a generic end tag; the document
	// parser accepts it too.
	e, err := ParseElement(`<a><b></></>`)
	if err != nil {
		t.Fatalf("ParseElement: %v", err)
	}
	if len(e.Children) != 1 || e.Children[0].Name != "b" {
		t.Errorf("got %v", e)
	}
}

func TestEntities(t *testing.T) {
	e, err := ParseElement(`<a>&lt;x&gt; &amp; &#65;&#x42;</a>`)
	if err != nil {
		t.Fatalf("ParseElement: %v", err)
	}
	if e.Text != "<x> & AB" {
		t.Errorf("Text = %q", e.Text)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	orig := NewElement("department",
		NewText("name", "CS <&> lab"),
		NewElement("professor",
			NewText("firstName", "Pavel"),
			NewElement("publication")),
	)
	orig.Children[1].ID = "p1"
	for _, indent := range []int{-1, 0, 2} {
		s := MarshalElement(orig, indent)
		back, err := ParseElement(s)
		if err != nil {
			t.Fatalf("indent %d: reparse: %v\n%s", indent, err, s)
		}
		if !back.Equal(orig) {
			t.Errorf("indent %d: round trip mismatch:\n%s\nvs\n%s", indent, s, MarshalElement(back, indent))
		}
	}
}

func TestDocumentMarshalRoundTrip(t *testing.T) {
	doc := &Document{DocType: "a", Root: NewElement("a", NewText("b", "x"))}
	s := Marshal(doc, 1)
	back, dt, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if dt == nil || dt.Root != "a" {
		t.Errorf("doctype lost: %+v", dt)
	}
	if !back.Root.Equal(doc.Root) {
		t.Errorf("round trip mismatch: %s", s)
	}
}

func TestStructuralEqualAndKey(t *testing.T) {
	a := NewElement("p", NewText("t", "hello"), NewElement("j"))
	b := NewElement("p", NewText("t", "world"), NewElement("j"))
	c := NewElement("p", NewElement("j"), NewText("t", "hello"))
	if !a.StructuralEqual(b) {
		t.Error("a and b differ only in PCDATA; same structural class")
	}
	if a.StructuralEqual(c) {
		t.Error("a and c have different child order; different classes")
	}
	if a.StructureKey() != b.StructureKey() {
		t.Error("keys of a and b must agree")
	}
	if a.StructureKey() == c.StructureKey() {
		t.Error("keys of a and c must differ")
	}
	// PCDATA emptiness vs element emptiness are distinct classes.
	d := NewText("x", "")
	e := NewElement("x")
	if d.StructureKey() == e.StructureKey() {
		t.Error("empty-string content and empty element content are different classes")
	}
}

func TestWalkOrderIsDocumentOrder(t *testing.T) {
	e := NewElement("a",
		NewElement("b", NewElement("c")),
		NewElement("d"))
	var order []string
	e.Walk(func(x *Element) bool { order = append(order, x.Name); return true })
	want := []string{"a", "b", "c", "d"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestAssignIDs(t *testing.T) {
	e := NewElement("a", NewElement("b"), NewElement("c"))
	e.Children[0].ID = "e1" // collides with the generator's naming scheme
	if err := e.AssignIDs("e"); err != nil {
		t.Fatalf("AssignIDs: %v", err)
	}
	seen := map[string]bool{}
	e.Walk(func(x *Element) bool {
		if x.ID == "" || seen[x.ID] {
			t.Errorf("bad ID %q on %s", x.ID, x.Name)
		}
		seen[x.ID] = true
		return true
	})
	dup := NewElement("a", NewElement("b"), NewElement("c"))
	dup.Children[0].ID = "x"
	dup.Children[1].ID = "x"
	if err := dup.AssignIDs("e"); err == nil {
		t.Error("duplicate IDs should be rejected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := NewElement("a", NewText("b", "x"))
	c := a.Clone()
	c.Children[0].Text = "y"
	if a.Children[0].Text != "x" {
		t.Error("Clone must not share children")
	}
	if !a.Clone().Equal(a) {
		t.Error("Clone must be Equal to original")
	}
}

func TestSizeDepthNames(t *testing.T) {
	e := NewElement("a", NewElement("b", NewText("c", "")), NewElement("b"))
	if e.Size() != 4 {
		t.Errorf("Size = %d, want 4", e.Size())
	}
	if e.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", e.Depth())
	}
	if got := e.Names(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Names = %v", got)
	}
}

// randomElement builds a random element tree for property tests.
func randomElement(r *rand.Rand, depth int) *Element {
	name := string(rune('a' + r.Intn(6)))
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return NewText(name, randomText(r))
		}
		return NewElement(name)
	}
	n := r.Intn(4)
	kids := make([]*Element, n)
	for i := range kids {
		kids[i] = randomElement(r, depth-1)
	}
	return NewElement(name, kids...)
}

func randomText(r *rand.Rand) string {
	alphabet := []rune("ab <>&\"'xyzé世")
	n := r.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(alphabet[r.Intn(len(alphabet))])
	}
	// The parser trims surrounding whitespace of PCDATA; keep the property
	// checkable by trimming here as well. Empty PCDATA is indistinguishable
	// from empty element content once serialized ("<a></a>"), so generated
	// PCDATA is always non-empty.
	s := strings.TrimSpace(b.String())
	if s == "" {
		s = "t"
	}
	return s
}

func TestQuickMarshalParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomElement(r, 4)
		for _, indent := range []int{-1, 2} {
			s := MarshalElement(e, indent)
			back, err := ParseElement(s)
			if err != nil {
				t.Logf("seed %d: parse error %v on\n%s", seed, err, s)
				return false
			}
			if !back.Equal(e) {
				t.Logf("seed %d: mismatch on\n%s", seed, s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickStructureKeyMatchesStructuralEqual(t *testing.T) {
	f := func(seed1, seed2 int64) bool {
		a := randomElement(rand.New(rand.NewSource(seed1)), 3)
		b := randomElement(rand.New(rand.NewSource(seed2)), 3)
		return a.StructuralEqual(b) == (a.StructureKey() == b.StructureKey())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDepthGuard(t *testing.T) {
	deep := strings.Repeat("<a>", 100000) + strings.Repeat("</a>", 100000)
	if _, err := ParseElement(deep); err == nil || !strings.Contains(err.Error(), "nesting exceeds") {
		t.Errorf("adversarial nesting must be rejected gracefully, got %v", err)
	}
	// Just under the limit still parses.
	ok := strings.Repeat("<a>", 1000) + strings.Repeat("</a>", 1000)
	if _, err := ParseElement(ok); err != nil {
		t.Errorf("1000 levels should parse: %v", err)
	}
}

func TestSelectors(t *testing.T) {
	e, err := ParseElement(`<dept>
	  <name>CS</name>
	  <prof id="p1"><pub id="x1"><title>A</title></pub><pub id="x2"><title>B</title></pub></prof>
	  <prof id="p2"><pub id="x3"><title>C</title></pub></prof>
	</dept>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.ChildrenNamed("prof")); got != 2 {
		t.Errorf("ChildrenNamed = %d", got)
	}
	if got := len(e.ChildrenNamed("*")); got != 3 {
		t.Errorf("wildcard children = %d", got)
	}
	if got := e.TextOf("name"); got != "CS" {
		t.Errorf("TextOf = %q", got)
	}
	if got := e.TextOf("prof/pub/title"); got != "A" {
		t.Errorf("deep TextOf = %q", got)
	}
	if got := len(e.Select("prof/pub")); got != 3 {
		t.Errorf("Select = %d", got)
	}
	if got := len(e.Select("prof/*/title")); got != 3 {
		t.Errorf("Select wildcard = %d", got)
	}
	if e.First("nosuch") != nil || e.TextOf("prof") != "" {
		t.Error("missing paths must come back empty")
	}
	if e.First("") != e {
		t.Error("empty path selects the receiver")
	}
	titles := e.Descendants("title")
	if len(titles) != 3 || titles[0].Text != "A" || titles[2].Text != "C" {
		t.Errorf("Descendants = %v", titles)
	}
	if got := len(e.Descendants("*")); got != 9 {
		t.Errorf("all descendants = %d, want 9", got)
	}
}

// TestParseErrorPositions: ParseError must report the correct 1-based line
// for every newline convention — \n, \r\n and lone \r — and an offset
// clamped into the input. (A regression guard: the line counter used to
// see only \n, so CRLF input was fine by luck but classic-Mac \r input
// reported everything on line 1, and an error raised at EOF could carry
// an offset past the end of the input.)
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name  string
		input string
		line  int
	}{
		{"lf", "<a>\n<b>\n<c>oops</a>", 3},
		{"crlf", "<a>\r\n<b>\r\n<c>oops</a>", 3},
		{"cr", "<a>\r<b>\r<c>oops</a>", 3},
		{"mixed", "<a>\r\n<b>\r<c>\n<d>oops</a>", 4},
		{"first-line", "<a><b>oops</a>", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Parse(tc.input)
			if err == nil {
				t.Fatal("mismatched tags must fail")
			}
			pe, ok := err.(*ParseError)
			if !ok {
				t.Fatalf("err is %T, want *ParseError", err)
			}
			if pe.Line != tc.line {
				t.Errorf("line = %d, want %d (%q)", pe.Line, tc.line, tc.input)
			}
			if pe.Offset < 0 || pe.Offset > len(tc.input) {
				t.Errorf("offset = %d, outside [0, %d]", pe.Offset, len(tc.input))
			}
		})
	}
}

// TestParseErrorOffsetClampedAtEOF: errors raised after the scanner ran
// off the end (unterminated constructs) must clamp Offset to len(input).
func TestParseErrorOffsetClampedAtEOF(t *testing.T) {
	for _, input := range []string{"<a>", "<a", "<a href=", `<a href="x`, "<a><!-- unterminated"} {
		_, _, err := Parse(input)
		if err == nil {
			t.Fatalf("%q must fail", input)
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Fatalf("%q: err is %T, want *ParseError", input, err)
		}
		if pe.Offset > len(input) {
			t.Errorf("%q: offset = %d > len %d", input, pe.Offset, len(input))
		}
	}
}

// TestCharacterReferences: a character reference must spell an XML 1.0
// Char in unsigned digits. Out-of-range, surrogate, NUL and signed
// references are rejected — by Parse, ParseElement and the Scanner alike,
// in text and in the id attribute — instead of being decoded to U+FFFD, a
// raw NUL, or the unsigned value.
func TestCharacterReferences(t *testing.T) {
	cases := []struct {
		ref  string
		want string // decoded text; "" means rejected
	}{
		{"&#x110000;", ""},
		{"&#xD800;", ""},
		{"&#xDFFF;", ""},
		{"&#-65;", ""},
		{"&#x-41;", ""},
		{"&#0;", ""},
		{"&#x0;", ""},
		{"&#+65;", ""},
		{"&#x+41;", ""},
		{"&#1;", ""},
		{"&#xFFFE;", ""},
		{"&#xFFFF;", ""},
		{"&#4294967361;", ""},
		{"&#x;", ""},
		{"&#;", ""},
		{"&#65;", "A"},
		{"&#x41;", "A"},
		{"&#X41;", "A"},
		{"&#x0041;", "A"},
		{"&#9;", "\t"},
		{"&#xA;", "\n"},
		{"&#13;", "\r"},
		{"&#x20;", " "},
		{"&#xD7FF;", "\uD7FF"},
		{"&#xE000;", "\uE000"},
		{"&#xFFFD;", "\uFFFD"},
		{"&#x10000;", "\U00010000"},
		{"&#x10FFFF;", "\U0010FFFF"},
	}
	for _, c := range cases {
		text := "<a>x" + c.ref + "y</a>"
		attr := `<a id="x` + c.ref + `y"/>`
		e, err := ParseElement(text)
		_, _, derr := Parse(text)
		ae, aerr := ParseElement(attr)
		_, serr := drain(t, text)
		_, saerr := drain(t, attr)
		if c.want == "" {
			if err == nil || derr == nil || aerr == nil || serr == nil || saerr == nil {
				t.Errorf("%s accepted (ParseElement %v, Parse %v, id %v, Scanner %v, Scanner id %v)",
					c.ref, err, derr, aerr, serr, saerr)
			}
			continue
		}
		if err != nil || derr != nil || aerr != nil || serr != nil || saerr != nil {
			t.Errorf("%s rejected: %v %v %v %v %v", c.ref, err, derr, aerr, serr, saerr)
			continue
		}
		if want := "x" + c.want + "y"; e.Text != want || ae.ID != want {
			t.Errorf("%s: text %q, id %q, want %q", c.ref, e.Text, ae.ID, want)
		}
	}
}

// TestTextKeepsWhitespaceBetweenComments: the text of an element is its
// character data with comments removed, so whitespace standing between
// two comments inside the text is kept.
func TestTextKeepsWhitespaceBetweenComments(t *testing.T) {
	for src, want := range map[string]string{
		`<a>x<!--c-->   <!--d-->y</a>`:       "x   y",
		`<a> x <!--c-->&#32;<!--d--> y </a>`: "x   y",
		`<a><!--c-->x<!--d--></a>`:           "x",
		`<a>&lt;<!-- <b/> -->&gt;</a>`:       "<>",
		"<a>\n  x\n  <!--c-->\n  y\n</a>":    "x\n  \n  y",
		`<a id="i">x</a>`:                    "x",
	} {
		e, err := ParseElement(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if !e.IsText || e.Text != want {
			t.Errorf("%q: text %q (IsText %v), want %q", src, e.Text, e.IsText, want)
		}
	}
}
