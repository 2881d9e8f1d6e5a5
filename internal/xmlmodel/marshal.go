package xmlmodel

import (
	"io"
	"sync"
)

// This file is the one XML writer every serving path uses: view answers,
// query answers and forwarded answers all stream through WriteElement,
// and the string-returning Marshal/MarshalElement are thin wrappers over
// the same core. The core appends into one pooled buffer and hands it to
// the destination in flushSize pieces, so writing a document costs no
// allocation per node: escaping is an index scan that copies each
// unescaped run as it is, and indentation is sliced from a constant run
// of spaces.

// flushSize is the buffered amount at which the writer hands its buffer to
// the destination.
const flushSize = 8 << 10

// maxPooledBuffer bounds the buffers kept for reuse: a wrapper that
// collected one very large document does not pin that much memory in the
// pool.
const maxPooledBuffer = 1 << 20

// spaces is the run indentation is sliced from; deeper indentation is
// written in several slices.
const spaces = "                                "

// encoder is the writer core's state: the destination, the pending bytes
// and the first write error. A nil destination collects the whole output
// in buf (the string-returning wrappers).
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

var encoders = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, flushSize)} }}

func getEncoder(w io.Writer) *encoder {
	enc := encoders.Get().(*encoder)
	enc.w = w
	return enc
}

func putEncoder(enc *encoder) {
	if cap(enc.buf) > maxPooledBuffer {
		return
	}
	enc.w, enc.buf, enc.err = nil, enc.buf[:0], nil
	encoders.Put(enc)
}

// WriteElement writes the element subtree e to w as XML, byte for byte
// what MarshalElement returns. When indent is negative the output is
// compact; otherwise children are placed on their own lines indented by
// indent spaces per level and the output ends with a newline. Output is
// buffered and handed to w in pieces; the first error w returns stops the
// writer (nothing more is written to w) and is returned.
func WriteElement(w io.Writer, e *Element, indent int) error {
	enc := getEncoder(w)
	enc.element(e, indent, 0)
	enc.endLine(indent)
	enc.flush()
	err := enc.err
	putEncoder(enc)
	return err
}

// Marshal serializes the document as XML. When indent is negative the
// output is compact (no added whitespace); otherwise children are placed on
// their own lines indented by the given number of spaces per level. The
// DOCTYPE declaration is emitted only when doctype is non-empty; callers
// that want the internal subset inline should use dtd.MarshalDocument.
func Marshal(d *Document, indent int) string {
	enc := getEncoder(nil)
	if d.DocType != "" {
		enc.buf = append(enc.buf, "<!DOCTYPE "...)
		enc.buf = append(enc.buf, d.DocType...)
		enc.buf = append(enc.buf, '>')
		enc.endLine(indent)
	}
	return enc.collect(d.Root, indent)
}

// MarshalElement serializes a single element subtree as XML; see
// WriteElement for the layout.
func MarshalElement(e *Element, indent int) string {
	return getEncoder(nil).collect(e, indent)
}

// collect writes e after whatever enc already holds, returns the whole
// output as a string and releases enc.
func (enc *encoder) collect(e *Element, indent int) string {
	enc.element(e, indent, 0)
	enc.endLine(indent)
	s := string(enc.buf)
	putEncoder(enc)
	return s
}

// flush hands the pending bytes to the destination unless an earlier write
// failed; either way the buffer is emptied.
func (enc *encoder) flush() {
	if enc.w == nil {
		return
	}
	if enc.err == nil && len(enc.buf) > 0 {
		_, enc.err = enc.w.Write(enc.buf)
	}
	enc.buf = enc.buf[:0]
}

func (enc *encoder) element(e *Element, indent, level int) {
	if enc.err != nil {
		return
	}
	enc.pad(indent, level)
	enc.buf = append(enc.buf, '<')
	enc.buf = append(enc.buf, e.Name...)
	if e.ID != "" {
		enc.buf = append(enc.buf, ` id="`...)
		enc.escape(e.ID, true)
		enc.buf = append(enc.buf, '"')
	}
	enc.buf = append(enc.buf, '>')
	switch {
	case e.IsText:
		enc.escape(e.Text, false)
	case len(e.Children) > 0:
		enc.endLine(indent)
		for _, k := range e.Children {
			enc.element(k, indent, level+1)
			enc.endLine(indent)
		}
		enc.pad(indent, level)
	}
	enc.buf = append(enc.buf, "</"...)
	enc.buf = append(enc.buf, e.Name...)
	enc.buf = append(enc.buf, '>')
	if enc.w != nil && len(enc.buf) >= flushSize {
		enc.flush()
	}
}

// endLine ends a line of indented output.
func (enc *encoder) endLine(indent int) {
	if indent >= 0 {
		enc.buf = append(enc.buf, '\n')
	}
}

// pad writes the indentation of level.
func (enc *encoder) pad(indent, level int) {
	if indent < 0 {
		return
	}
	n := indent * level
	for n > len(spaces) {
		enc.buf = append(enc.buf, spaces...)
		n -= len(spaces)
	}
	enc.buf = append(enc.buf, spaces[:n]...)
}

// escape writes s with the XML metacharacters replaced by entity
// references: & < > always, and " inside attribute values.
func (enc *encoder) escape(s string, attr bool) {
	last := 0
	for i := 0; i < len(s); i++ {
		var ref string
		switch s[i] {
		case '&':
			ref = "&amp;"
		case '<':
			ref = "&lt;"
		case '>':
			ref = "&gt;"
		case '"':
			if !attr {
				continue
			}
			ref = "&quot;"
		default:
			continue
		}
		enc.buf = append(enc.buf, s[last:i]...)
		enc.buf = append(enc.buf, ref...)
		last = i + 1
	}
	enc.buf = append(enc.buf, s[last:]...)
}
