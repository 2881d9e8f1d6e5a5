package xmlmodel

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseError describes a syntax error in an XML input, with a byte offset
// and a 1-based line number into the original text.
type ParseError struct {
	Offset int
	Line   int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xmlmodel: parse error at line %d (offset %d): %s", e.Line, e.Offset, e.Msg)
}

// Doctype carries the raw DOCTYPE declaration found while parsing a
// document: the declared root name and the text of the internal subset
// (the part between '[' and ']'), if any. Package dtd parses the subset.
type Doctype struct {
	Root     string
	Internal string
}

// Parse parses an XML document in the paper's model: a prolog (XML
// declaration, comments, an optional DOCTYPE with internal subset) followed
// by a single element. Attributes other than id are accepted and ignored
// (lenient mode) so that realistic documents parse; mixed content — text
// and elements interleaved under one parent — is rejected, per Section 2.
// The tree is built from the events of one Scanner pass.
func Parse(input string) (*Document, *Doctype, error) {
	return ParseWith(input, nil)
}

// ParseWith is Parse with every scanner event, EventEOF included, passed
// to visit (when non-nil) before the tree builder applies it. An error
// from visit ends the parse and is returned as is. It lets a consumer of
// the event stream, such as a streaming validator, share the one scan
// that builds the tree.
func ParseWith(input string, visit func(Event) error) (*Document, *Doctype, error) {
	sc := NewScanner(input)
	root, err := sc.build(visit)
	if err != nil {
		return nil, nil, err
	}
	doc := &Document{Root: root}
	dt := sc.Doctype()
	if dt != nil {
		doc.DocType = dt.Root
	}
	return doc, dt, nil
}

// ParseElement parses a single element: no prolog, and nothing but
// whitespace around the element.
func ParseElement(input string) (*Element, error) {
	sc := NewScanner(input)
	sc.bare = true
	return sc.build(nil)
}

// build runs the scanner to the end of the document and assembles the
// tree from its events. Children gather on one shared stack and move into
// an exactly sized slice when their parent closes. Text events carry only
// the chunks that are not all whitespace, so an element's text is read
// from the input span between its first and last chunk, comments
// removed: whitespace between two chunks stays part of the text.
func (s *Scanner) build(visit func(Event) error) (*Element, error) {
	type open struct {
		e          *Element
		kids       int // index of the element's first child in kids
		start, end int // span of the character data; start < 0 when none
	}
	var stack []open
	var kids []*Element
	for {
		ev, err := s.Next()
		if err != nil {
			return nil, err
		}
		if visit != nil {
			if err := visit(ev); err != nil {
				return nil, err
			}
		}
		switch ev.Kind {
		case EventStart:
			e := &Element{Name: ev.Name, ID: decode(ev.ID)}
			kids = append(kids, e)
			stack = append(stack, open{e: e, kids: len(kids), start: -1})
		case EventText:
			top := &stack[len(stack)-1]
			if top.start < 0 {
				top.start = s.p.pos - len(ev.Text)
			}
			top.end = s.p.pos
		case EventEnd:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n := len(kids) - top.kids; n > 0 {
				top.e.Children = append(make([]*Element, 0, n), kids[top.kids:]...)
				kids = kids[:top.kids]
			}
			if top.start >= 0 {
				top.e.IsText = true
				top.e.Text = strings.TrimSpace(decode(stripComments(s.p.src[top.start:top.end])))
			}
		case EventEOF:
			return kids[0], nil
		}
	}
}

// stripComments removes the comments from a span of character data (the
// only markup such a span can hold).
func stripComments(s string) string {
	i := strings.Index(s, "<!--")
	if i < 0 {
		return s
	}
	var b strings.Builder
	for ; i >= 0; i = strings.Index(s, "<!--") {
		b.WriteString(s[:i])
		s = s[i+4:]
		s = s[strings.Index(s, "-->")+3:]
	}
	b.WriteString(s)
	return b.String()
}

// maxParseDepth bounds element nesting, so adversarial inputs like
// "<a><a><a>…" cannot grow the scanner and builder stacks without bound.
const maxParseDepth = 4096

// parser is the cursor the Scanner tokenizes with.
type parser struct {
	src     string
	pos     int
	doctype *Doctype
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) errf(format string, args ...any) error {
	off := min(p.pos, len(p.src))
	line := 1
	for i := 0; i < off; i++ {
		switch p.src[i] {
		case '\n':
			line++
		case '\r':
			// A lone \r (classic Mac line ending) terminates a line; the
			// \r of a \r\n pair must not, or CRLF input double-counts.
			if i+1 >= off || p.src[i+1] != '\n' {
				line++
			}
		}
	}
	return &ParseError{Offset: off, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		break
	}
}

// skipMisc skips whitespace and comments.
func (p *parser) skipMisc() {
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

func (p *parser) skipProlog() {
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

func (p *parser) parseDoctype() {
	p.pos += len("<!DOCTYPE")
	p.skipWS()
	root := p.readName()
	dt := &Doctype{Root: root}
	// Scan to the end of the declaration, capturing an internal subset.
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
				end = i - 1 // drop the consumed closing ']'
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

func (p *parser) readName() string {
	start := p.pos
	for p.pos < len(p.src) {
		r, sz := utf8.DecodeRuneInString(p.src[p.pos:])
		if isNameRune(r, p.pos == start) {
			p.pos += sz
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func isNameRune(r rune, first bool) bool {
	if unicode.IsLetter(r) || r == '_' {
		return true
	}
	if first {
		return false
	}
	return unicode.IsDigit(r) || r == '-' || r == '.' || r == ':'
}

var errUnterminatedEntity = errors.New("unterminated entity reference")

// entityRune decodes one entity body (the text between '&' and ';') to its
// rune. Error messages carry no package prefix so callers can wrap them
// in their own error shapes.
func entityRune(ent string) (rune, error) {
	switch {
	case ent == "lt":
		return '<', nil
	case ent == "gt":
		return '>', nil
	case ent == "amp":
		return '&', nil
	case ent == "quot":
		return '"', nil
	case ent == "apos":
		return '\'', nil
	case strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X"):
		return charRef(ent, ent[2:], 16)
	case strings.HasPrefix(ent, "#"):
		return charRef(ent, ent[1:], 10)
	}
	return 0, fmt.Errorf("unknown entity &%s; (entities are outside the model, Section 2)", ent)
}

// charRef decodes the digits of a character reference. A sign is not a
// digit, and the code point must be an XML 1.0 Char (production [2]):
// NUL and the other C0 controls but tab, LF and CR, surrogates, U+FFFE,
// U+FFFF and anything past U+10FFFF are rejected, never rewritten.
func charRef(ent, digits string, base int) (rune, error) {
	n, err := strconv.ParseUint(digits, base, 32)
	r := rune(n)
	valid := r == '\t' || r == '\n' || r == '\r' ||
		(r >= 0x20 && r <= 0xD7FF) || (r >= 0xE000 && r <= 0xFFFD) || (r >= 0x10000 && r <= 0x10FFFF)
	if err != nil || !valid {
		return 0, fmt.Errorf("bad character reference &%s;", ent)
	}
	return r, nil
}

// decode resolves the entities of character data or an attribute value
// that the Scanner has accepted, so every entity in it is well formed.
func decode(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		r, _ := entityRune(s[i+1 : i+semi])
		b.WriteRune(r)
		i += semi + 1
	}
	return b.String()
}
