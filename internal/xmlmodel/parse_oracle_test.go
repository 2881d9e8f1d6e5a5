package xmlmodel_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmlmodel"
)

// oracleParse and oracleParseElement are a frozen copy of the recursive
// descent parser that Parse and ParseElement replaced with a tree builder
// over xmlmodel.Scanner. They are the oracle of the agreement tests
// below: the Scanner-built trees must be equal to the ones this parser
// builds (IDs and DocType included), and the two must accept and reject
// the same inputs. Only entity decoding is shared (xmlmodel.EntityRune),
// so character-reference rules have one definition.
func oracleParse(input string) (*xmlmodel.Document, *xmlmodel.Doctype, error) {
	p := &oracleParser{src: input}
	p.skipProlog()
	dt := p.doctype
	root, err := p.parseElement()
	if err != nil {
		return nil, nil, err
	}
	p.skipMisc()
	if !p.eof() {
		return nil, nil, p.errf("trailing content after root element")
	}
	doc := &xmlmodel.Document{Root: root}
	if dt != nil {
		doc.DocType = dt.Root
	}
	return doc, dt, nil
}

func oracleParseElement(input string) (*xmlmodel.Element, error) {
	p := &oracleParser{src: input}
	p.skipWS()
	e, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if !p.eof() {
		return nil, p.errf("trailing content after element")
	}
	return e, nil
}

const oracleMaxDepth = 4096

type oracleParser struct {
	src     string
	pos     int
	depth   int
	doctype *xmlmodel.Doctype
}

func (p *oracleParser) eof() bool { return p.pos >= len(p.src) }

func (p *oracleParser) errf(format string, args ...any) error {
	return &xmlmodel.ParseError{Offset: min(p.pos, len(p.src)), Line: 1, Msg: fmt.Sprintf(format, args...)}
}

func (p *oracleParser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		break
	}
}

func (p *oracleParser) skipMisc() {
	for {
		p.skipWS()
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += 4 + end + 3
			continue
		}
		return
	}
}

func (p *oracleParser) skipProlog() {
	for {
		p.skipMisc()
		rest := p.src[p.pos:]
		switch {
		case strings.HasPrefix(rest, "<?"):
			end := strings.Index(rest, "?>")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += end + 2
		case strings.HasPrefix(rest, "<!DOCTYPE"):
			p.parseDoctype()
		default:
			return
		}
	}
}

func (p *oracleParser) parseDoctype() {
	p.pos += len("<!DOCTYPE")
	p.skipWS()
	dt := &xmlmodel.Doctype{Root: p.readName()}
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '[' {
			start := p.pos + 1
			d := 1
			i := start
			for i < len(p.src) && d > 0 {
				switch p.src[i] {
				case '[':
					d++
				case ']':
					d--
				}
				i++
			}
			end := i
			if d == 0 {
				end = i - 1
			}
			dt.Internal = p.src[start:end]
			p.pos = i
			continue
		}
		p.pos++
		if c == '>' {
			break
		}
	}
	p.doctype = dt
}

func (p *oracleParser) readName() string {
	start := p.pos
	for p.pos < len(p.src) {
		r, sz := utf8.DecodeRuneInString(p.src[p.pos:])
		if unicode.IsLetter(r) || r == '_' ||
			(p.pos != start && (unicode.IsDigit(r) || r == '-' || r == '.' || r == ':')) {
			p.pos += sz
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *oracleParser) parseElement() (*xmlmodel.Element, error) {
	if p.depth >= oracleMaxDepth {
		return nil, p.errf("element nesting exceeds %d levels", oracleMaxDepth)
	}
	p.depth++
	defer func() { p.depth-- }()
	if p.eof() || p.src[p.pos] != '<' {
		return nil, p.errf("expected '<'")
	}
	p.pos++
	name := p.readName()
	if name == "" {
		return nil, p.errf("expected element name")
	}
	e := &xmlmodel.Element{Name: name}
	for {
		p.skipWS()
		if p.eof() {
			return nil, p.errf("unterminated start tag <%s", name)
		}
		if strings.HasPrefix(p.src[p.pos:], "/>") {
			p.pos += 2
			return e, nil
		}
		if p.src[p.pos] == '>' {
			p.pos++
			break
		}
		attr := p.readName()
		if attr == "" {
			return nil, p.errf("expected attribute name in <%s>", name)
		}
		p.skipWS()
		if p.eof() || p.src[p.pos] != '=' {
			return nil, p.errf("expected '=' after attribute %s", attr)
		}
		p.pos++
		p.skipWS()
		val, err := p.readQuoted()
		if err != nil {
			return nil, err
		}
		if attr == "id" || attr == "ID" {
			e.ID = val
		}
	}
	var text strings.Builder
	sawText := false
	for {
		if p.eof() {
			return nil, p.errf("unterminated element <%s>", name)
		}
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				return nil, p.errf("unterminated comment")
			}
			p.pos += 4 + end + 3
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "</") {
			p.pos += 2
			p.skipWS()
			end := p.readName()
			p.skipWS()
			if p.eof() || p.src[p.pos] != '>' {
				return nil, p.errf("malformed end tag for <%s>", name)
			}
			p.pos++
			if end != "" && end != name {
				return nil, p.errf("end tag </%s> does not match <%s>", end, name)
			}
			break
		}
		if p.src[p.pos] == '<' {
			child, err := p.parseElement()
			if err != nil {
				return nil, err
			}
			e.Children = append(e.Children, child)
			continue
		}
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != '<' {
			p.pos++
		}
		chunk, err := oracleUnescape(p.src[start:p.pos])
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(chunk) != "" {
			sawText = true
		}
		text.WriteString(chunk)
	}
	if sawText {
		if len(e.Children) > 0 {
			return nil, p.errf("mixed content in <%s> is not supported by the model (Section 2)", name)
		}
		e.IsText = true
		e.Text = strings.TrimSpace(text.String())
	}
	return e, nil
}

func (p *oracleParser) readQuoted() (string, error) {
	if p.eof() || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
		return "", p.errf("expected quoted attribute value")
	}
	q := p.src[p.pos]
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != q {
		p.pos++
	}
	if p.eof() {
		return "", p.errf("unterminated attribute value")
	}
	val := p.src[start:p.pos]
	p.pos++
	return oracleUnescape(val)
}

func oracleUnescape(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			return "", fmt.Errorf("unterminated entity reference in %q", s)
		}
		r, err := xmlmodel.EntityRune(s[i+1 : i+semi])
		if err != nil {
			return "", err
		}
		b.WriteRune(r)
		i += semi + 1
	}
	return b.String(), nil
}

// sameTree reports whether two parse results agree: both rejected, or
// both accepted with equal trees, equal IDs everywhere and equal DocType
// and internal subset.
func sameTree(t *testing.T, src string, got, want *xmlmodel.Element, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%.120q: verdicts differ: Parse err=%v, oracle err=%v", src, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !got.Equal(want) || !sameIDs(got, want) {
		t.Fatalf("%.120q: trees differ:\n got  %s\n want %s", src,
			xmlmodel.MarshalElement(got, -1), xmlmodel.MarshalElement(want, -1))
	}
}

func sameIDs(a, b *xmlmodel.Element) bool {
	if a.ID != b.ID || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameIDs(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// checkAgainstOracle runs both Parse and ParseElement on src and compares
// each with its frozen counterpart.
func checkAgainstOracle(t *testing.T, src string) {
	t.Helper()
	doc, dt, err := xmlmodel.Parse(src)
	odoc, odt, oerr := oracleParse(src)
	var root, oroot *xmlmodel.Element
	if err == nil {
		root = doc.Root
	}
	if oerr == nil {
		oroot = odoc.Root
	}
	sameTree(t, src, root, oroot, err, oerr)
	if err == nil {
		if doc.DocType != odoc.DocType || (dt == nil) != (odt == nil) || (dt != nil && *dt != *odt) {
			t.Fatalf("%.120q: doctype %q %+v, oracle %q %+v", src, doc.DocType, dt, odoc.DocType, odt)
		}
	}
	e, err := xmlmodel.ParseElement(src)
	oe, oerr := oracleParseElement(src)
	sameTree(t, src, e, oe, err, oerr)
}

// oracleCases are the hand-picked shapes: the scanner parity cases, text
// split by comments (whitespace between the comments is kept), prologs
// and trailing comments (Parse skips them, ParseElement rejects them).
var oracleCases = []string{
	`<a><b>x</b></a>`,
	`<a/>`,
	`<a>x<b/></a>`,
	`<a><b/>x</a>`,
	`<a>  <b/>  </a>`,
	`<a>&#32;<b/></a>`,
	`<a>&#65;<b/></a>`,
	`<a><b></a>`,
	`<a><b>x</></a>`,
	`<a></a><b/>`,
	`<a foo="1" id="i"/>`,
	`<a>&bogus;</a>`,
	`<a>&#x110000;</a>`,
	`<a>x`,
	`<a><!-- no end`,
	`<a b='q'><c/></a>`,
	`<root> <x/> <x/> </root>`,
	`<a>x<!--c-->   <!--d-->y</a>`,
	`<a>  x <!--c--> &#32; <!--d--> y  </a>`,
	`<a><!--c-->x<!--d--></a>`,
	`<a>x<!--c-->  </a>`,
	`<a>&amp;<!--c-->&lt;</a>`,
	`<a id="&lt;i&gt;">t</a>`,
	`<a id="x&bogus;y"/>`,
	`<?xml version="1.0"?><a/>`,
	`<!-- lead --><a/>`,
	`<a/><!-- trail -->`,
	"  <a/>\n\t",
	`<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>t</a>`,
	`<!DOCTYPE a><a/>`,
	`<!DOCTYPE a [ [nested] ]><a/>`,
	`<a>`, `<a`, `<a href=`, `<a href="x`, `<a><!-- unterminated`,
	"<a>\r\n<b>\r<c>oops</a>",
	`<a></b>`, `<a><b></a></b>`, `<a attr=>x</a>`, `junk`, ``,
	strings.Repeat("<a>", 4097) + strings.Repeat("</a>", 4097),
	strings.Repeat("<a>", 4096) + strings.Repeat("</a>", 4096),
	strings.Repeat("<a>", 4095) + "<b/>" + strings.Repeat("</a>", 4095),
}

func TestParseAgreesWithOracle(t *testing.T) {
	for _, src := range oracleCases {
		checkAgainstOracle(t, src)
	}
}

// TestParseAgreesWithOracleOnCorpora compares the two parsers on
// generated documents (serialized compact and indented) and on seeded
// byte-level mutations of them, which cover the reject frontier.
func TestParseAgreesWithOracleOnCorpora(t *testing.T) {
	d, err := dtd.Parse(`<!DOCTYPE department [
	  <!ELEMENT department (name, professor+, gradStudent*)>
	  <!ELEMENT professor (name, publication*)>
	  <!ELEMENT gradStudent (name, publication*)>
	  <!ELEMENT publication (title, author+)>
	  <!ELEMENT name (#PCDATA)> <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>
	]>`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.New(d, gen.Options{Seed: 5, MaxDepth: 6, AssignIDs: true,
		TextPool: []string{"x", "a b", "<&>", " pad ", "é"}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	const alphabet = "ab<>/&;#x -!"
	for _, doc := range g.Corpus(40) {
		for _, indent := range []int{-1, 2} {
			src := d.String() + xmlmodel.MarshalElement(doc.Root, indent)
			checkAgainstOracle(t, src)
			for m := 0; m < 20; m++ {
				pos := rng.Intn(len(src))
				c := string(alphabet[rng.Intn(len(alphabet))])
				switch rng.Intn(3) {
				case 0:
					checkAgainstOracle(t, src[:pos]+c+src[pos+1:])
				case 1:
					checkAgainstOracle(t, src[:pos]+c+src[pos:])
				default:
					checkAgainstOracle(t, src[:pos]+src[pos+1:])
				}
			}
		}
	}
}

func FuzzParseAgreesWithOracle(f *testing.F) {
	for _, src := range oracleCases[:len(oracleCases)-3] {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkAgainstOracle(t, src)
	})
}
