package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dtd"
	"repro/internal/load"
	"repro/internal/xmlmodel"
)

// workload is one traffic mix with its fixed offered rate and p99 limit.
type workload struct {
	Name  string
	Rate  float64 // fixed offered rate, requests/s
	Limit float64 // p99 limit, ms, for the SLO ladder
}

// Each fixed rate is half the workload's median slo_rps over three seeds,
// measured on this fixture with a two-vCPU host (read-hot 150/s, refresh
// 240/s, define 344/s): the fixed phase runs well below saturation, so
// its latency is service time more than queueing.
var workloads = []workload{
	{Name: "read-hot", Rate: 75, Limit: 100},
	{Name: "refresh", Rate: 120, Limit: 100},
	{Name: "define", Rate: 170, Limit: 100},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

type opKind int

const (
	opView opKind = iota
	opQuery
	opInvalidate
	opInfer
)

// op is one request of a plan. Key names the expected answer; ops with the
// same key must receive the same answer.
type op struct {
	Kind   opKind
	Method string
	Path   string
	Body   string
	Key    string
}

// expectation is what the benchmark computed, from its own fixture trees,
// that an answer must be.
type expectation struct {
	Root    string
	Entries []string // canonical forms, in document order
	// Source names the invalidated source (opInvalidate).
	Source string
	// Pair indexes the /infer pool (opInfer).
	Pair int
}

// plan is a workload's op sequence (cycled by the load generator) and the
// expected answer for every op key.
type plan struct {
	Ops    []op
	Expect map[string]*expectation
	Pool   []inferPair // define only
}

const planLen = 4096

// buildPlan derives a workload's op sequence from the seed.
func buildPlan(w string, fx *fixture, seed int64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(w))))
	p := &plan{Expect: map[string]*expectation{}}
	switch w {
	case "read-hot":
		all := p.entryQuery(fx, "view", viewName, func(*xmlmodel.Element) bool { return true })
		view := op{Kind: opView, Method: "GET", Path: "/views/" + viewName, Key: all}
		plainKey := p.entryQuery(fx, "plain", "r", func(*xmlmodel.Element) bool { return true })
		plain := op{Kind: opQuery, Method: "POST", Path: "/views/" + viewName + "/query",
			Body: fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry/> </%s>`, viewName, viewName), Key: plainKey}
		var qualified []op
		for _, c := range entryChildNames {
			c := c
			key := p.entryQuery(fx, "has:"+c, "r", func(e *xmlmodel.Element) bool { return hasChild(e, c) })
			qualified = append(qualified, op{Kind: opQuery, Method: "POST", Path: "/views/" + viewName + "/query",
				Body: fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry> [<%s/>] </entry> </%s>`, viewName, c, viewName), Key: key})
		}
		for len(p.Ops) < planLen {
			switch x := rng.Intn(8); {
			case x < 3:
				p.Ops = append(p.Ops, view)
			case x < 4:
				p.Ops = append(p.Ops, plain)
			default:
				p.Ops = append(p.Ops, qualified[rng.Intn(len(qualified))])
			}
		}
	case "refresh":
		order := rng.Perm(len(fx.Sources))
		for cycle := 0; len(p.Ops) < planLen; cycle++ {
			s := fx.Sources[order[cycle%len(order)]].Name
			key := "invalidate:" + s
			p.Expect[key] = &expectation{Source: s}
			p.Ops = append(p.Ops, op{Kind: opInvalidate, Method: "POST", Path: "/invalidate",
				Body: fmt.Sprintf(`{"source": %q}`, s), Key: key})
			for q := 0; q < 3; q++ {
				t := fx.TextPool[rng.Intn(len(fx.TextPool))]
				key := p.entryQuery(fx, "name:"+t, "r", func(e *xmlmodel.Element) bool { return childText(e, "name") == t })
				p.Ops = append(p.Ops, op{Kind: opQuery, Method: "POST", Path: "/views/" + viewName + "/query",
					Body: fmt.Sprintf(`r = SELECT X WHERE <%s> X:<entry><name>%s</name></entry> </%s>`, viewName, t, viewName), Key: key})
			}
		}
	case "define":
		pool, err := buildInferPool(seed)
		if err != nil {
			return nil, err
		}
		p.Pool = pool
		for i := range pool {
			p.Expect[fmt.Sprintf("infer:%d", i)] = &expectation{Pair: i}
		}
		for len(p.Ops) < planLen {
			i := rng.Intn(len(pool))
			p.Ops = append(p.Ops, op{Kind: opInfer, Method: "POST", Path: "/infer",
				Body: pool[i].Body, Key: fmt.Sprintf("infer:%d", i)})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	return p, nil
}

// entryQuery registers the expected answer of a query that picks the union
// view's entry elements satisfying keep: the union lists each source
// root's entry children in part (source) order.
func (p *plan) entryQuery(fx *fixture, key, root string, keep func(*xmlmodel.Element) bool) string {
	if _, ok := p.Expect[key]; ok {
		return key
	}
	exp := &expectation{Root: root}
	for _, s := range fx.Sources {
		for _, e := range s.Doc.Root.Children {
			if e.Name == "entry" && keep(e) {
				exp.Entries = append(exp.Entries, canonElement(e))
			}
		}
	}
	p.Expect[key] = exp
	return key
}

// entryChildNames are the entry children the qualified queries test: the
// family-determined ones, so every seed asks the same questions. A source
// whose DTD lacks the name is pruned for that query.
var entryChildNames = []string{"description", "itm", "kind", "name", "profile0"}

func hasChild(e *xmlmodel.Element, name string) bool {
	for _, c := range e.Children {
		if c.Name == name {
			return true
		}
	}
	return false
}

func childText(e *xmlmodel.Element, name string) string {
	for _, c := range e.Children {
		if c.Name == name && c.IsText {
			return c.Text
		}
	}
	return ""
}

// inferPair is one /infer request: a source DTD and a view over it.
type inferPair struct {
	DTD  *dtd.DTD
	View string
	Body string // DOCTYPE + view definition, the /infer body format
}

const inferPoolSize = 48

// inferViews are the view shapes of the /infer pool, over the mixed XMark
// family: a qualifier, same-name sibling conditions (tagged refinement), a
// path down the recursive parlist/listitem chain, a deep optional chain and
// a disjunction branch.
var inferViews = []string{
	`v = SELECT X WHERE <%[1]s> X:<entry> [<kind/>] <name/> </entry> </%[1]s>`,
	`v = SELECT X WHERE <%[1]s> X:<entry> <description/> <description/> </entry> </%[1]s>`,
	`v = SELECT X WHERE <%[1]s> <entry> <description> X:<parlist> <listitem> <parlist/> </listitem> </parlist> </description> </entry> </%[1]s>`,
	`v = SELECT X WHERE <%[1]s> <entry> X:<profile0> <profile1> <field1/> </profile1> </profile0> </entry> </%[1]s>`,
	`v = SELECT X WHERE <%[1]s> <entry> <kind> X:<variant1> <venue2/> </variant1> </kind> </entry> </%[1]s>`,
}

// buildInferPool synthesizes inferPoolSize distinct (DTD, view) pairs of
// the mixed family at width and depth 8 to 16. The sizes are fixed per
// pool slot; the seed picks the synthesizer's choices.
func buildInferPool(seed int64) ([]inferPair, error) {
	var pool []inferPair
	for i := 0; i < inferPoolSize; i++ {
		root := fmt.Sprintf("site%d", i)
		d, err := load.Synthesize(load.SchemaOptions{
			Seed: seed*131 + int64(i), Family: load.FamilyMixed, Root: root,
			Width: 8 + i%9, Depth: 8 + (i*4)%9,
		})
		if err != nil {
			return nil, fmt.Errorf("infer pool: %w", err)
		}
		view := fmt.Sprintf(inferViews[i%len(inferViews)], root)
		pool = append(pool, inferPair{DTD: d, View: view, Body: d.String() + "\n" + view})
	}
	return pool, nil
}
