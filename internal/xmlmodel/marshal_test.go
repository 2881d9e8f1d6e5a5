package xmlmodel_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/xmlmodel"
)

// legacyMarshalElement is a frozen copy of the string-building marshaller
// the streaming writer replaced (one strings.Replacer per text node, one
// strings.Repeat per indent). It is the oracle of the byte-identity tests:
// served bytes must not change, so the writer must reproduce it exactly.
func legacyMarshalElement(e *xmlmodel.Element, indent int) string {
	var b strings.Builder
	legacyWriteXML(&b, e, indent, 0)
	if indent >= 0 {
		b.WriteByte('\n')
	}
	return b.String()
}

func legacyMarshal(d *xmlmodel.Document, indent int) string {
	var b strings.Builder
	if d.DocType != "" {
		b.WriteString("<!DOCTYPE ")
		b.WriteString(d.DocType)
		b.WriteString(">")
		if indent >= 0 {
			b.WriteByte('\n')
		}
	}
	legacyWriteXML(&b, d.Root, indent, 0)
	if indent >= 0 {
		b.WriteByte('\n')
	}
	return b.String()
}

func legacyWriteXML(b *strings.Builder, e *xmlmodel.Element, indent, level int) {
	pad := func(l int) {
		if indent >= 0 {
			b.WriteString(strings.Repeat(" ", indent*l))
		}
	}
	pad(level)
	b.WriteByte('<')
	b.WriteString(e.Name)
	if e.ID != "" {
		b.WriteString(` id="`)
		b.WriteString(legacyEscapeAttr(e.ID))
		b.WriteByte('"')
	}
	b.WriteByte('>')
	switch {
	case e.IsText:
		b.WriteString(legacyEscapeText(e.Text))
	case len(e.Children) > 0:
		if indent >= 0 {
			b.WriteByte('\n')
		}
		for _, k := range e.Children {
			legacyWriteXML(b, k, indent, level+1)
			if indent >= 0 {
				b.WriteByte('\n')
			}
		}
		pad(level)
	}
	b.WriteString("</")
	b.WriteString(e.Name)
	b.WriteByte('>')
}

func legacyEscapeText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

func legacyEscapeAttr(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// markupTexts are PCDATA values carrying every character the writer
// escapes, in runs, at both ends and next to multi-byte UTF-8.
var markupTexts = []string{
	"plain",
	`R&D <Lab> "West"`,
	"&&<<>>\"\"",
	"a > b & c < d",
	"Zoë – 研究所 – ünïcödé",
	"<é>&\"ß\"",
	"😀 & 😀",
}

// markupIDs suffixes element IDs so attribute escaping sees the same mix.
var markupIDs = []string{"", `&`, `"q"`, "<ü>", "研&究", `a"b<c>d&e`}

// familyCorpora generates a corpus per internal/load XMark family with
// markupTexts as the PCDATA pool and markupIDs folded into the IDs: the
// entries of documents from successive seeds, gathered under one root
// until the corpus has at least minCorpus elements.
func familyCorpora(t testing.TB) map[load.Family]*xmlmodel.Document {
	t.Helper()
	const minCorpus = 300
	out := map[load.Family]*xmlmodel.Document{}
	for i, fam := range load.Families() {
		root := xmlmodel.NewElement("site")
		for seed := int64(0); root.Size() < minCorpus; seed++ {
			src, err := load.BuildSource("site", load.SourceOptions{
				Schema: load.SchemaOptions{Seed: int64(40*i) + seed, Family: fam},
				Gen: gen.Options{
					MaxDepth:   8,
					LengthBias: 0.25,
					TextPool:   markupTexts,
					AssignIDs:  true,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			root.Children = append(root.Children, src.Doc.Root.Children...)
		}
		n := 0
		root.Walk(func(e *xmlmodel.Element) bool {
			e.ID += markupIDs[n%len(markupIDs)]
			n++
			return true
		})
		out[fam] = &xmlmodel.Document{DocType: "site", Root: root}
	}
	return out
}

// deepElement nests depth elements, each holding a marked-up text leaf and
// the next level: at indent 2 the innermost lines are indented far beyond
// the writer's constant space run.
func deepElement(depth int) *xmlmodel.Element {
	e := xmlmodel.NewText("leaf", markupTexts[1])
	for i := 0; i < depth; i++ {
		e = xmlmodel.NewElement(fmt.Sprintf("n%d", i), xmlmodel.NewText("t", markupTexts[i%len(markupTexts)]), e)
		e.ID = markupIDs[i%len(markupIDs)]
	}
	return e
}

// indents covers compact output, zero-width indentation, the serving
// indent and an indent wider than the writer's constant space run.
var indents = []int{-1, 0, 2, 40}

// checkIdentical asserts every writer entry point reproduces the legacy
// bytes for e at every indent.
func checkIdentical(t *testing.T, label string, e *xmlmodel.Element) {
	t.Helper()
	for _, indent := range indents {
		want := legacyMarshalElement(e, indent)
		if got := xmlmodel.MarshalElement(e, indent); got != want {
			t.Errorf("%s indent %d: MarshalElement differs from the legacy marshaller at byte %d", label, indent, firstDiff(got, want))
		}
		var buf bytes.Buffer
		if err := xmlmodel.WriteElement(&buf, e, indent); err != nil {
			t.Fatalf("%s indent %d: WriteElement: %v", label, indent, err)
		}
		if got := buf.String(); got != want {
			t.Errorf("%s indent %d: WriteElement differs from the legacy marshaller at byte %d", label, indent, firstDiff(got, want))
		}
		doc := &xmlmodel.Document{DocType: e.Name, Root: e}
		if got, want := xmlmodel.Marshal(doc, indent), legacyMarshal(doc, indent); got != want {
			t.Errorf("%s indent %d: Marshal differs from the legacy marshaller at byte %d", label, indent, firstDiff(got, want))
		}
	}
	if got, want := e.String(), legacyMarshalElement(e, -1); got != want {
		t.Errorf("%s: String differs from the legacy marshaller at byte %d", label, firstDiff(got, want))
	}
}

func firstDiff(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestWriteElementMatchesLegacyOnFamilies: over a generated corpus of
// every XMark family, with escapable characters and multi-byte UTF-8 in
// texts and IDs, the writer's bytes equal the legacy marshaller's.
func TestWriteElementMatchesLegacyOnFamilies(t *testing.T) {
	for fam, doc := range familyCorpora(t) {
		checkIdentical(t, string(fam), doc.Root)
	}
}

// TestWriteElementMatchesLegacyOnEdgeCases covers the shapes a generated
// corpus may miss: empty element content, empty text, metacharacters only,
// and nesting deep enough that indentation spans several space runs.
func TestWriteElementMatchesLegacyOnEdgeCases(t *testing.T) {
	empty := xmlmodel.NewElement("e")
	emptyText := xmlmodel.NewText("t", "")
	meta := xmlmodel.NewText("m", `&<>"`)
	meta.ID = `&<>"`
	checkIdentical(t, "empty", empty)
	checkIdentical(t, "emptyText", emptyText)
	checkIdentical(t, "meta", meta)
	checkIdentical(t, "mixed", xmlmodel.NewElement("r", empty, emptyText, meta))
	checkIdentical(t, "deep", deepElement(30))
}

// TestWriteElementFlushesLargeOutput: a document many times the writer's
// buffer reaches the destination in several writes, intact.
func TestWriteElementFlushesLargeOutput(t *testing.T) {
	e := largeDoc(t, 2000)
	w := &countingWriter{}
	if err := xmlmodel.WriteElement(w, e, 2); err != nil {
		t.Fatal(err)
	}
	if w.writes < 2 {
		t.Errorf("%d bytes arrived in %d write(s); the writer must stream, not buffer the whole answer", w.buf.Len(), w.writes)
	}
	if w.buf.String() != legacyMarshalElement(e, 2) {
		t.Error("streamed bytes differ from the legacy marshaller")
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

var errBroken = errors.New("broken pipe")

// failingWriter accepts limit bytes, then fails every write; it counts
// the writes attempted after the first failure.
type failingWriter struct {
	limit, written int
	failed         bool
	afterFailure   int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.afterFailure++
		return 0, errBroken
	}
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		w.written, w.failed = w.limit, true
		return n, errBroken
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteElementStopsAfterError: the destination's first error is
// returned and nothing more is written to it, wherever the failure falls.
func TestWriteElementStopsAfterError(t *testing.T) {
	e := largeDoc(t, 200)
	size := len(xmlmodel.MarshalElement(e, 2))
	for _, limit := range []int{0, 1, 100, 9000, size / 2, size - 1} {
		w := &failingWriter{limit: limit}
		err := xmlmodel.WriteElement(w, e, 2)
		if !errors.Is(err, errBroken) {
			t.Errorf("limit %d: err = %v, want the writer's error", limit, err)
		}
		if w.afterFailure != 0 {
			t.Errorf("limit %d: %d writes after the first error", limit, w.afterFailure)
		}
	}
	// The pooled writer state must not leak the error into the next call.
	var buf bytes.Buffer
	if err := xmlmodel.WriteElement(&buf, e, 2); err != nil || buf.Len() != size {
		t.Errorf("write after a failed write: err %v, %d of %d bytes", err, buf.Len(), size)
	}
}

// largeDoc parses a department document with n professor/gradStudent pairs
// (~650 KB of compact XML at n=2000).
func largeDoc(t testing.TB, n int) *xmlmodel.Element {
	t.Helper()
	var b strings.Builder
	b.WriteString("<department><name>CS</name>")
	for i := 0; i < n; i++ {
		b.WriteString("<professor><firstName>x</firstName><lastName>y</lastName>" +
			"<publication><title>t</title><author>a</author><journal>j</journal></publication>" +
			"<teaches>z</teaches></professor>")
	}
	for i := 0; i < n; i++ {
		b.WriteString("<gradStudent><firstName>p</firstName><lastName>q</lastName>" +
			"<publication><title>t</title><author>a</author><conference>c</conference></publication>" +
			"</gradStudent>")
	}
	b.WriteString("</department>")
	e, err := xmlmodel.ParseElement(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWriteElementAllocsIndependentOfSize pins the writer's allocation
// budget: streaming a document into io.Discard costs a small constant
// number of allocations, the same for a 100× larger document.
func TestWriteElementAllocsIndependentOfSize(t *testing.T) {
	small, big := largeDoc(t, 20), largeDoc(t, 2000)
	measure := func(e *xmlmodel.Element) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := xmlmodel.WriteElement(io.Discard, e, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallAllocs, bigAllocs := measure(small), measure(big)
	const ceiling = 2
	if smallAllocs > ceiling || bigAllocs > ceiling {
		t.Errorf("WriteElement allocates %.1f (%d elements) and %.1f (%d elements) per call, want at most %d",
			smallAllocs, small.Size(), bigAllocs, big.Size(), ceiling)
	}
}

// TestWriteElementConcurrent: goroutines sharing the writer's buffer pool
// each get their own bytes (run under -race).
func TestWriteElementConcurrent(t *testing.T) {
	corpora := familyCorpora(t)
	var docs []*xmlmodel.Element
	var want []string
	for _, fam := range load.Families() {
		docs = append(docs, corpora[fam].Root)
		want = append(want, legacyMarshalElement(corpora[fam].Root, 2))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(docs)
				var buf bytes.Buffer
				if err := xmlmodel.WriteElement(&buf, docs[k], 2); err != nil || buf.String() != want[k] {
					t.Errorf("goroutine %d: WriteElement of corpus %d differs (err %v)", g, k, err)
					return
				}
				if xmlmodel.MarshalElement(docs[k], 2) != want[k] {
					t.Errorf("goroutine %d: MarshalElement of corpus %d differs", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkWriteElement streams largeDoc(2000) at the serving indent into
// io.Discard: the marshal layer of every view and query answer.
func BenchmarkWriteElement(b *testing.B) {
	e := largeDoc(b, 2000)
	b.SetBytes(int64(len(xmlmodel.MarshalElement(e, 2))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := xmlmodel.WriteElement(io.Discard, e, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalElement is the string-returning wrapper on the same
// fixture: the writer core plus one copy into the result string.
func BenchmarkMarshalElement(b *testing.B) {
	e := largeDoc(b, 2000)
	b.SetBytes(int64(len(xmlmodel.MarshalElement(e, 2))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marshalSink = xmlmodel.MarshalElement(e, 2)
	}
}

// marshalSink keeps the benchmarked call from being optimized away.
var marshalSink string
