package dtd

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/regex"
	"repro/internal/xmlmodel"
)

// StreamStats is a snapshot of the process-wide streaming-validation
// counters: documents validated, scanner events consumed, input bytes
// covered. internal/serve surfaces them at /metrics.
type StreamStats struct {
	Documents int64 `json:"documents"`
	Events    int64 `json:"events"`
	Bytes     int64 `json:"bytes"`
}

var streamDocuments, streamEvents, streamBytes atomic.Int64

// StreamValidationStats returns the current streaming-validation counters.
func StreamValidationStats() StreamStats {
	return StreamStats{
		Documents: streamDocuments.Load(),
		Events:    streamEvents.Load(),
		Bytes:     streamBytes.Load(),
	}
}

// ValidateStream validates a document text against the DTD without
// building a tree: a SAX-style scan (xmlmodel.Scanner) drives the
// compiled content-model DFAs directly, one explicit stack frame per open
// element. Memory is O(depth) and the allocation count is independent of
// document size — the per-call costs are the frame stack and one
// automata-cache lookup per distinct element name — so arbitrarily large
// source payloads validate without being materialized.
//
// It accepts exactly the documents that Parse plus Validate accept, and
// rejects exactly the ones they reject (property-tested); only error
// positions and messages may differ, because the scan reports the first
// violation in document order while the tree validator reports the first
// in preorder.
func (d *DTD) ValidateStream(input string) error {
	_, err := d.scan(input, false)
	return err
}

// ParseValid parses a document text into a tree and validates it against
// the DTD in one scan: the events that build the tree are the ones the
// validator checks. It accepts and rejects what ValidateStream does and
// returns the tree xmlmodel.Parse would build. A DOCTYPE in the text is
// skipped, not parsed: d is the schema. Errors are *xmlmodel.ParseError
// for malformed text and *ValidationError for invalid documents.
func (d *DTD) ParseValid(input string) (*Document, error) {
	return d.scan(input, true)
}

// scan is the one streaming pass behind ValidateStream and ParseValid: it
// feeds every scanner event to a validator, and builds the tree from the
// same events when build is set.
func (d *DTD) scan(input string, build bool) (*Document, error) {
	streamDocuments.Add(1)
	streamBytes.Add(int64(len(input)))
	v := d.newValidator()
	events := int64(0)
	visit := func(ev xmlmodel.Event) error {
		events++
		return v.event(ev)
	}
	var doc *Document
	var err error
	if build {
		doc, _, err = xmlmodel.ParseWith(input, visit)
	} else {
		sc := xmlmodel.NewScanner(input)
		for {
			var ev xmlmodel.Event
			if ev, err = sc.Next(); err == nil {
				err = visit(ev)
			}
			if err != nil || ev.Kind == xmlmodel.EventEOF {
				break
			}
		}
	}
	streamEvents.Add(events)
	return doc, err
}

// plan is the per-name validation plan: PCDATA or a compiled DFA.
type plan struct {
	pcdata bool
	dfa    *automata.DFA
	t      Type
}

// frame is the state of one element on the validator's stack: its name
// and position among its parent's children (read only to render an error
// path) and, for the streaming checks, the DFA state its children have
// advanced to so far.
type frame struct {
	name     string
	idx      int
	plan     plan
	state    int
	sawText  bool
	children int
}

// validator is the one DTD validation core (Definitions 2.3 and 2.4),
// shared by the tree walk (Validate, ValidateElement) and the event
// stream (ValidateStream, ParseValid): a per-call memo of validation
// plans, DFA.Step/Accept over each child word, and a frame stack from
// which an error path is rendered only when a check fails.
type validator struct {
	d     *DTD
	plans map[string]plan
	stack []frame
}

func (d *DTD) newValidator() *validator {
	return &validator{d: d, plans: make(map[string]plan, len(d.Types))}
}

// typeOf resolves the validation plan for a name, memoized per call so the
// hot loop never re-derives an automata-cache key: the first occurrence of
// a name costs one (process-wide cached) Compiled lookup, every later one
// is a map read. Compilation stays lazy — a declared-but-unused
// pathological content model costs nothing.
func (v *validator) typeOf(name string) (plan, bool) {
	if p, ok := v.plans[name]; ok {
		return p, true
	}
	t, ok := v.d.Types[name]
	if !ok {
		return plan{}, false
	}
	p := plan{pcdata: t.PCDATA, t: t}
	if !t.PCDATA {
		p.dfa = automata.Compiled(t.Model)
	}
	v.plans[name] = p
	return p, true
}

// fail reports a violation at the top frame's path.
func (v *validator) fail(format string, args ...any) error {
	return &ValidationError{Path: v.path(), Msg: fmt.Sprintf(format, args...)}
}

// path renders the slash path of the top frame (/root/child[0]/grand[2]);
// only error paths pay for it.
func (v *validator) path() string {
	var b strings.Builder
	for i, f := range v.stack {
		if i == 0 {
			b.WriteByte('/')
			b.WriteString(f.name)
			continue
		}
		fmt.Fprintf(&b, "/%s[%d]", f.name, f.idx)
	}
	return b.String()
}

// element validates the subtree rooted at e, the idx-th child of the top
// frame, in preorder: e's type and its whole child word first, then each
// child in turn, so the first violation reported is the first in
// preorder.
func (v *validator) element(e *Element, idx int) error {
	v.stack = append(v.stack, frame{name: e.Name, idx: idx})
	p, declared := v.typeOf(e.Name)
	switch {
	case !declared:
		return v.fail("element name %s is not declared", e.Name)
	case p.pcdata:
		if !e.IsText {
			return v.fail("%s is declared (#PCDATA) but has element content", e.Name)
		}
	case e.IsText:
		return v.fail("%s has character content but is declared %s", e.Name, p.t)
	default:
		state, ok := p.dfa.Start, true
		for _, k := range e.Children {
			if state, ok = p.dfa.Step(state, regex.N(k.Name)); !ok {
				break
			}
		}
		if !ok || !p.dfa.Accept[state] {
			return v.fail("children %v do not match content model %s", childWord(e), p.t.Model)
		}
		for i, k := range e.Children {
			if err := v.element(k, i); err != nil {
				return err
			}
		}
	}
	v.stack = v.stack[:len(v.stack)-1]
	return nil
}

func childWord(e *Element) string {
	parts := make([]string, len(e.Children))
	for i, k := range e.Children {
		parts[i] = k.Name
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// event advances the streaming checks by one scanner event: a child name
// steps its parent's DFA when it opens, and acceptance is decided when
// the parent closes.
func (v *validator) event(ev xmlmodel.Event) error {
	switch ev.Kind {
	case xmlmodel.EventStart:
		return v.open(ev.Name)
	case xmlmodel.EventText:
		top := &v.stack[len(v.stack)-1]
		if !top.plan.pcdata {
			return v.fail("%s has character content but is declared %s", top.name, top.plan.t)
		}
		top.sawText = true
	case xmlmodel.EventEnd:
		top := &v.stack[len(v.stack)-1]
		if top.plan.pcdata {
			if !top.sawText {
				return v.fail("%s is declared (#PCDATA) but has element content", top.name)
			}
		} else if !top.plan.dfa.Accept[top.state] {
			return v.fail("children do not match content model %s", top.plan.t.Model)
		}
		v.stack = v.stack[:len(v.stack)-1]
	}
	return nil
}

func (v *validator) open(name string) error {
	p, declared := v.typeOf(name)
	f := frame{name: name, plan: p}
	if len(v.stack) == 0 && name != v.d.Root {
		v.stack = append(v.stack, f)
		return v.fail("root element is %s, document type requires %s", name, v.d.Root)
	}
	if len(v.stack) > 0 {
		parent := &v.stack[len(v.stack)-1]
		f.idx = parent.children
		parent.children++
		if declared {
			if parent.plan.pcdata {
				return v.fail("%s is declared (#PCDATA) but has element content", parent.name)
			}
			// A child name outside the model's alphabet can never match; a
			// name inside it advances the DFA, and acceptance is decided at
			// close.
			next, ok := parent.plan.dfa.Step(parent.state, regex.N(name))
			if !ok {
				return v.fail("child %s (index %d) cannot occur under content model %s", name, f.idx, parent.plan.t.Model)
			}
			parent.state = next
		}
	}
	if declared && !p.pcdata {
		f.state = p.dfa.Start
	}
	v.stack = append(v.stack, f)
	if !declared {
		return v.fail("element name %s is not declared", name)
	}
	return nil
}
