package main

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/xmlmodel"
)

// Fixture shape, shared by every workload. Document size is set directly
// (elements per source, entry depth) rather than through the generator's
// length bias, so every seed yields a fleet of the same size and the
// seed changes content, not the amount of work.
//
// 8 × 425 ≈ 3.4k elements is the large-fleet size the serving path was
// profiled at (148 KB answers, ~51 uncached materializations/s on two
// vCPUs); with short pooled PCDATA the union view here is ~92 KB. A pool
// of 64 texts makes a text query select ~1/64 of the entries that have a
// name, so refresh answers stay near 1 KB, under 2% of read-hot's bytes
// per op.
const (
	fleetSources   = 8
	elementsPerSrc = 425
	entryDepth     = 5
	textPoolSize   = 64
	viewName       = "fleet"
)

// fleetFamilies assigns one XMark-class schema family per source slot, so
// the fleet is heterogeneous in the same way for every seed.
var fleetFamilies = []load.Family{
	load.FamilyMixed, load.FamilyOptional, load.FamilyDisjunctive, load.FamilyRecursive,
	load.FamilyIDRef, load.FamilyMixed, load.FamilyOptional, load.FamilyDisjunctive,
}

// source is one synthesized source: its schema and document, and the exact
// bytes the leaf handler serves for them.
type source struct {
	Name     string
	DTD      *dtd.DTD
	Doc      *xmlmodel.Document
	DTDText  string // GET /views/{name}/dtd
	DocText  string // GET /views/{name}
	Elements int
}

// fixture is the fleet the mediator unions.
type fixture struct {
	Seed     int64
	Sources  []*source
	TextPool []string
}

// buildFixture synthesizes the fleet from the seed: one XMark-class DTD per
// source (load.Synthesize) and a root holding entry elements generated
// under it (gen) until the document has about elementsPerSrc elements,
// with PCDATA drawn from a pool of textPoolSize values so text-selective
// queries have small answers.
func buildFixture(seed int64) (*fixture, error) {
	fx := &fixture{Seed: seed}
	for i := 0; i < textPoolSize; i++ {
		fx.TextPool = append(fx.TextPool, fmt.Sprintf("t%02d", i))
	}
	for i := 0; i < fleetSources; i++ {
		name := fmt.Sprintf("src%d", i)
		sseed := seed*1009 + int64(i)
		d, err := load.Synthesize(load.SchemaOptions{
			Seed: sseed, Family: fleetFamilies[i%len(fleetFamilies)], Root: name, Depth: 4, Width: 4,
		})
		if err != nil {
			return nil, fmt.Errorf("fixture: source %s: %w", name, err)
		}
		g, err := gen.New(d, gen.Options{Seed: sseed, MaxDepth: entryDepth, TextPool: fx.TextPool})
		if err != nil {
			return nil, fmt.Errorf("fixture: source %s: %w", name, err)
		}
		root := xmlmodel.NewElement(name)
		for root.Size() < elementsPerSrc {
			gap := elementsPerSrc - root.Size()
			e := g.Element("entry", entryDepth)
			// For the entry that would overshoot, take the candidate that
			// lands closest to the target size.
			for i := 0; i < 32 && e.Size() > gap; i++ {
				if c := g.Element("entry", entryDepth); abs(c.Size()-gap) < abs(e.Size()-gap) {
					e = c
				}
			}
			root.Children = append(root.Children, e)
		}
		doc := &xmlmodel.Document{DocType: name, Root: root}
		if err := d.Validate(doc); err != nil {
			return nil, fmt.Errorf("fixture: source %s invalid under its DTD: %w", name, err)
		}
		fx.Sources = append(fx.Sources, &source{
			Name:     name,
			DTD:      d,
			Doc:      doc,
			DTDText:  d.String() + "\n",
			DocText:  dtd.MarshalDocument(doc, d, 2),
			Elements: root.Size(),
		})
	}
	return fx, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// sourceBytes is the mean served document size per source.
func (fx *fixture) sourceBytes() (elements, bytes float64) {
	for _, s := range fx.Sources {
		elements += float64(s.Elements)
		bytes += float64(len(s.DocText))
	}
	n := float64(len(fx.Sources))
	return elements / n, bytes / n
}

// leafHandler is one replica of every source: it serves pre-rendered bytes
// for /views/{name}/dtd and /views/{name}, so a leaf costs next to nothing
// and the benchmark times the mediator, not its sources.
type leafHandler struct {
	dtds, docs map[string][]byte
}

func newLeafHandler(fx *fixture) *leafHandler {
	h := &leafHandler{dtds: map[string][]byte{}, docs: map[string][]byte{}}
	for _, s := range fx.Sources {
		h.dtds[s.Name] = []byte(s.DTDText)
		h.docs[s.Name] = []byte(s.DocText)
	}
	return h
}

func (h *leafHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/views/")
	if !ok || r.Method != http.MethodGet {
		http.NotFound(w, r)
		return
	}
	table := h.docs
	if name, isDTD := strings.CutSuffix(rest, "/dtd"); isDTD {
		rest, table = name, h.dtds
	}
	body, ok := table[rest]
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	_, _ = w.Write(body) // a failed write surfaces as a fetch error in the mediator
}
