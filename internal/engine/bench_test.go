package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// wideFleetDoc builds a union view over eight XMark-family sources: a root
// named fleet whose children are the entry elements of every source, about
// 425 elements per source (~635 entries in all). It is the shape of the
// view the mediator's read-hot traffic queries.
func wideFleetDoc(b *testing.B) *xmlmodel.Document {
	b.Helper()
	families := []load.Family{
		load.FamilyMixed, load.FamilyOptional, load.FamilyDisjunctive, load.FamilyRecursive,
		load.FamilyIDRef, load.FamilyMixed, load.FamilyOptional, load.FamilyDisjunctive,
	}
	var texts []string
	for i := 0; i < 64; i++ {
		texts = append(texts, fmt.Sprintf("t%02d", i))
	}
	root := xmlmodel.NewElement("fleet")
	for i, fam := range families {
		name := fmt.Sprintf("src%d", i)
		d, err := load.Synthesize(load.SchemaOptions{Seed: int64(i), Family: fam, Root: name, Depth: 4, Width: 4})
		if err != nil {
			b.Fatal(err)
		}
		g, err := gen.New(d, gen.Options{Seed: int64(i), MaxDepth: 5, TextPool: texts})
		if err != nil {
			b.Fatal(err)
		}
		for size := 1; size < 425; {
			e := g.Element("entry", 5)
			root.Children = append(root.Children, e)
			size += e.Size()
		}
	}
	return &xmlmodel.Document{DocType: "fleet", Root: root}
}

// evalSink keeps the benchmarked result live.
var evalSink []*xmlmodel.Element

// BenchmarkEvalElements times engine evaluation alone on the wide fleet
// view, for the three query shapes the mediator's benchmark traffic sends:
// a plain pick, a qualified pick and a text-selective pick.
func BenchmarkEvalElements(b *testing.B) {
	doc := wideFleetDoc(b)
	queries := []struct{ name, text string }{
		{"plain", `r = SELECT X WHERE <fleet> X:<entry/> </fleet>`},
		{"qualified", `r = SELECT X WHERE <fleet> X:<entry> [<kind/>] </entry> </fleet>`},
		{"text", `r = SELECT X WHERE <fleet> X:<entry><name>t00</name></entry> </fleet>`},
	}
	for _, q := range queries {
		query := xmas.MustParse(q.text)
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				picks, err := engine.EvalElements(query, doc)
				if err != nil {
					b.Fatal(err)
				}
				evalSink = picks
			}
		})
	}
}
