package xmlmodel

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// EventKind discriminates scanner events.
type EventKind uint8

const (
	// EventStart is an element start tag. A self-closing element produces
	// an EventStart immediately followed by its EventEnd.
	EventStart EventKind = iota
	// EventEnd is an element end tag.
	EventEnd
	// EventText is a non-whitespace character-data chunk.
	EventText
	// EventEOF reports a well-formed end of the document. Next keeps
	// returning it once the root element has closed cleanly.
	EventEOF
)

// Event is one SAX-style scanner event. All string fields are slices of
// the scanner's input — emitting an event never copies or allocates.
type Event struct {
	Kind EventKind
	// Name is the element name of a Start or End event.
	Name string
	// Text is the raw character data of a Text event: entity syntax is
	// validated but entities are not resolved.
	Text string
	// ID is the raw id/ID attribute value of a Start event ("" when absent).
	ID string
}

// openElem is the per-open-element scanner state: just enough to match end
// tags and reject mixed content, so a document of any size scans in
// O(depth) memory.
type openElem struct {
	name     string
	sawText  bool
	sawChild bool
}

// Scanner is the one tokenizer of the paper's XML model — prolog, a
// single element, attributes beyond id ignored, mixed content rejected
// (Section 2) — delivered as a flat event stream with no tree. Parse and
// ParseElement build their trees from its events, and dtd.ValidateStream
// consumes them directly to validate arbitrarily large documents without
// materializing them.
type Scanner struct {
	p       parser
	stack   []openElem
	started bool
	done    bool
	// bare is ParseElement's grammar: no prolog, and only whitespace
	// (no comments) after the element.
	bare bool
	err  error
	// pendingEnd holds the EventEnd of a self-closing element between the
	// two Next calls that deliver it.
	pendingEnd string
	hasPending bool
}

// NewScanner returns a scanner positioned at the start of input.
func NewScanner(input string) *Scanner {
	return &Scanner{p: parser{src: input}}
}

// Doctype returns the DOCTYPE declaration found in the prolog, available
// after the first Next call; nil when the document has none.
func (s *Scanner) Doctype() *Doctype { return s.p.doctype }

// Next returns the next event. After an error, every later call returns
// the same error; after a clean end of document, every call returns
// EventEOF.
func (s *Scanner) Next() (Event, error) {
	if s.err != nil {
		return Event{}, s.err
	}
	ev, err := s.next()
	if err != nil {
		s.err = err
		return Event{}, err
	}
	return ev, nil
}

func (s *Scanner) next() (Event, error) {
	if s.hasPending {
		s.hasPending = false
		return Event{Kind: EventEnd, Name: s.pendingEnd}, nil
	}
	if !s.started {
		s.started = true
		if s.bare {
			s.p.skipWS()
		} else {
			s.p.skipProlog()
		}
		return s.openTag()
	}
	if len(s.stack) == 0 {
		if !s.done {
			msg := "trailing content after root element"
			if s.bare {
				s.p.skipWS()
				msg = "trailing content after element"
			} else {
				s.p.skipMisc()
			}
			if !s.p.eof() {
				return Event{}, s.p.errf("%s", msg)
			}
			s.done = true
		}
		return Event{Kind: EventEOF}, nil
	}
	p := &s.p
	for {
		top := &s.stack[len(s.stack)-1]
		if p.eof() {
			return Event{}, p.errf("unterminated element <%s>", top.name)
		}
		rest := p.src[p.pos:]
		if strings.HasPrefix(rest, "<!--") {
			end := strings.Index(rest[4:], "-->")
			if end < 0 {
				return Event{}, p.errf("unterminated comment")
			}
			p.pos += 4 + end + 3
			continue
		}
		if strings.HasPrefix(rest, "</") {
			p.pos += 2
			p.skipWS()
			end := p.readName()
			p.skipWS()
			if p.eof() || p.src[p.pos] != '>' {
				return Event{}, p.errf("malformed end tag for <%s>", top.name)
			}
			p.pos++
			if end != "" && end != top.name {
				return Event{}, p.errf("end tag </%s> does not match <%s>", end, top.name)
			}
			name := top.name
			s.stack = s.stack[:len(s.stack)-1]
			return Event{Kind: EventEnd, Name: name}, nil
		}
		if rest[0] == '<' {
			if top.sawText {
				return Event{}, p.errf("mixed content in <%s> is not supported by the model (Section 2)", top.name)
			}
			top.sawChild = true
			return s.openTag()
		}
		// Character data: slice the raw chunk up to the next markup.
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != '<' {
			p.pos++
		}
		chunk := p.src[start:p.pos]
		nonWS, err := textHasNonSpace(chunk)
		if err != nil {
			return Event{}, p.errf("%v", err)
		}
		if !nonWS {
			continue // ignorable whitespace between elements
		}
		if top.sawChild {
			return Event{}, p.errf("mixed content in <%s> is not supported by the model (Section 2)", top.name)
		}
		top.sawText = true
		return Event{Kind: EventText, Name: top.name, Text: chunk}, nil
	}
}

// openTag scans a start tag (possibly self-closing) and emits its
// EventStart. The caller has already positioned the parser at '<'.
func (s *Scanner) openTag() (Event, error) {
	p := &s.p
	if p.eof() || p.src[p.pos] != '<' {
		return Event{}, p.errf("expected '<'")
	}
	if len(s.stack) >= maxParseDepth {
		return Event{}, p.errf("element nesting exceeds %d levels", maxParseDepth)
	}
	p.pos++
	name := p.readName()
	if name == "" {
		return Event{}, p.errf("expected element name")
	}
	ev := Event{Kind: EventStart, Name: name}
	for {
		p.skipWS()
		if p.eof() {
			return Event{}, p.errf("unterminated start tag <%s", name)
		}
		if strings.HasPrefix(p.src[p.pos:], "/>") {
			p.pos += 2
			s.pendingEnd, s.hasPending = name, true
			return ev, nil
		}
		if p.src[p.pos] == '>' {
			p.pos++
			s.stack = append(s.stack, openElem{name: name})
			return ev, nil
		}
		attr := p.readName()
		if attr == "" {
			return Event{}, p.errf("expected attribute name in <%s>", name)
		}
		p.skipWS()
		if p.eof() || p.src[p.pos] != '=' {
			return Event{}, p.errf("expected '=' after attribute %s", attr)
		}
		p.pos++
		p.skipWS()
		val, err := s.readQuotedRaw()
		if err != nil {
			return Event{}, err
		}
		if attr == "id" || attr == "ID" {
			ev.ID = val
		}
	}
}

// readQuotedRaw reads a quoted attribute value without resolving entities:
// the raw slice is returned after the entity syntax is checked, so
// scanning an attribute never allocates.
func (s *Scanner) readQuotedRaw() (string, error) {
	p := &s.p
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
	if _, err := textHasNonSpace(val); err != nil {
		return "", p.errf("%v", err)
	}
	return val, nil
}

// textHasNonSpace reports whether a raw character-data chunk contains any
// non-whitespace content once entities are resolved, without building the
// decoded string — the streaming equivalent of decode + TrimSpace != "".
// A chunk it accepts has only well-formed entities, which decode relies on.
func textHasNonSpace(chunk string) (bool, error) {
	nonWS := false
	for i := 0; i < len(chunk); {
		c := chunk[i]
		if c == '&' {
			semi := strings.IndexByte(chunk[i:], ';')
			if semi < 0 {
				return false, errUnterminatedEntity
			}
			r, err := entityRune(chunk[i+1 : i+semi])
			if err != nil {
				return false, err
			}
			if !unicode.IsSpace(r) {
				nonWS = true
			}
			i += semi + 1
			continue
		}
		if c < utf8.RuneSelf {
			if !unicode.IsSpace(rune(c)) {
				nonWS = true
			}
			i++
			continue
		}
		r, sz := utf8.DecodeRuneInString(chunk[i:])
		if !unicode.IsSpace(r) {
			nonWS = true
		}
		i += sz
	}
	return nonWS, nil
}
