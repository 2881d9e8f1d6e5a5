package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"hash/maphash"
	"io"
	"strings"
	"sync"

	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// canonElement renders an element subtree in the benchmark's canonical
// form: name, trimmed text, children. Indentation and empty-element syntax
// do not matter, so the program's marshalled answers and the fixture trees
// compare directly.
func canonElement(e *xmlmodel.Element) string {
	var b strings.Builder
	writeCanon(&b, e.Name, e.Text, len(e.Children), func(i int) { b.WriteString(canonElement(e.Children[i])) })
	return b.String()
}

func writeCanon(b *strings.Builder, name, text string, kids int, kid func(int)) {
	b.WriteByte('(')
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(strings.TrimSpace(text))
	for i := 0; i < kids; i++ {
		b.WriteByte(' ')
		kid(i)
	}
	b.WriteByte(')')
}

// xnode is an element decoded with encoding/xml, independent of the
// program's own parser.
type xnode struct {
	name string
	text strings.Builder
	kids []*xnode
}

func (n *xnode) canon() string {
	var b strings.Builder
	writeCanon(&b, n.name, n.text.String(), len(n.kids), func(i int) { b.WriteString(n.kids[i].canon()) })
	return b.String()
}

// decodeXML parses a document (a leading DOCTYPE is skipped) with
// encoding/xml and returns its root.
func decodeXML(body []byte) (*xnode, error) {
	dec := xml.NewDecoder(bytes.NewReader(body))
	var stack []*xnode
	var root *xnode
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &xnode{name: t.Name.Local}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				top.kids = append(top.kids, n)
			} else if root != nil {
				return nil, fmt.Errorf("second root element <%s>", n.name)
			} else {
				root = n
			}
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].text.Write(t)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("no root element")
	}
	return root, nil
}

// recorder keeps one copy of every distinct answer body per op key while
// the load runs (hashing is all the timed path pays), so every answer is
// checked after timing: an answer is correct iff its body is byte-identical
// to a body that passed the check.
type recorder struct {
	seed maphash.Seed

	mu     sync.Mutex
	bodies map[string]map[uint64][]byte
	stored int
}

// maxStoredBytes caps the distinct bodies kept for checking; a run that
// needs more has non-deterministic answers, which is itself reported.
const maxStoredBytes = 256 << 20

func newRecorder() *recorder {
	return &recorder{seed: maphash.MakeSeed(), bodies: map[string]map[uint64][]byte{}}
}

// record notes an answer body; the returned hash identifies it.
func (r *recorder) record(key string, body []byte) (uint64, bool) {
	h := maphash.Bytes(r.seed, body)
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.bodies[key]
	if m == nil {
		m = map[uint64][]byte{}
		r.bodies[key] = m
	}
	if _, ok := m[h]; ok {
		return h, true
	}
	if r.stored+len(body) > maxStoredBytes {
		return h, false
	}
	r.stored += len(body)
	m[h] = bytes.Clone(body)
	return h, true
}

// checker verifies the recorded bodies against the plan's expectations.
type checker struct {
	plan *plan
	fx   *fixture
}

// verdicts checks every distinct recorded body and returns, per key, the
// set of body hashes that passed, plus a description of each failure.
func (c *checker) verdicts(r *recorder) (map[string]map[uint64]bool, []string) {
	good := map[string]map[uint64]bool{}
	var problems []string
	for key, bodies := range r.bodies {
		exp := c.plan.Expect[key]
		good[key] = map[uint64]bool{}
		for h, body := range bodies {
			var err error
			if exp == nil {
				err = fmt.Errorf("no expectation")
			} else {
				err = c.check(key, exp, body)
			}
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", key, err))
				continue
			}
			good[key][h] = true
		}
	}
	return good, problems
}

func (c *checker) check(key string, exp *expectation, body []byte) error {
	switch {
	case exp.Source != "":
		var got struct {
			Source           string   `json:"source"`
			InvalidatedViews []string `json:"invalidated_views"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Source != exp.Source || len(got.InvalidatedViews) != 1 || got.InvalidatedViews[0] != viewName {
			return fmt.Errorf("invalidate answer %s", body)
		}
		return nil
	case strings.HasPrefix(key, "infer:"):
		return c.checkInfer(c.plan.Pool[exp.Pair], body)
	}
	root, err := decodeXML(body)
	if err != nil {
		return fmt.Errorf("answer does not decode: %w", err)
	}
	if root.name != exp.Root {
		return fmt.Errorf("answer root <%s>, want <%s>", root.name, exp.Root)
	}
	if len(root.kids) != len(exp.Entries) {
		return fmt.Errorf("answer has %d elements, want %d", len(root.kids), len(exp.Entries))
	}
	for i, k := range root.kids {
		if got := k.canon(); got != exp.Entries[i] {
			return fmt.Errorf("answer element %d differs: got %.80s, want %.80s", i, got, exp.Entries[i])
		}
	}
	if key == "view" {
		// A view answer carries its DTD inline and must validate under it.
		doc, d, err := dtd.ParseDocument(string(body))
		if err != nil {
			return fmt.Errorf("view answer: %w", err)
		}
		if d == nil {
			return fmt.Errorf("view answer has no inline DTD")
		}
		if err := d.Validate(doc); err != nil {
			return fmt.Errorf("view answer violates its inline DTD: %w", err)
		}
	}
	return nil
}

// checkInfer checks an /infer answer for soundness (Def. 3.1): its plain
// view DTD must accept the view's answer over a document of the source DTD.
func (c *checker) checkInfer(pair inferPair, body []byte) error {
	text := string(body)
	_, rest, ok := strings.Cut(text, "-- plain view DTD\n")
	if !ok {
		return fmt.Errorf("infer answer lacks the plain view DTD")
	}
	plain, _, ok := strings.Cut(rest, "\n-- classification")
	if !ok {
		return fmt.Errorf("infer answer lacks the classification")
	}
	viewDTD, err := dtd.Parse(plain)
	if err != nil {
		return fmt.Errorf("infer answer DTD: %w", err)
	}
	q, err := xmas.Parse(pair.View)
	if err != nil {
		return err
	}
	g, err := gen.New(pair.DTD, gen.Options{Seed: c.fx.Seed, MaxDepth: 8, TextPool: c.fx.TextPool})
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		ans, err := engine.Eval(q, g.Document())
		if err != nil {
			return err
		}
		if err := viewDTD.Validate(ans); err != nil {
			return fmt.Errorf("inferred DTD rejects a view answer: %w", err)
		}
	}
	return nil
}
