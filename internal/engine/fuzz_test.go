package engine

import (
	"math/rand"
	"testing"

	"repro/internal/xmlmodel"
)

// FuzzEvalAgreesWithReference decodes the input into a query over a|b|c
// (recursive steps, qualifiers, text conditions, "!=" pairs) and a
// document of at most 40 elements, using the differential test's random
// generators with the input bytes as their decisions, and compares the
// engine with the brute-force oracle. The seeds are recorded runs of the
// generators over math/rand streams.
func FuzzEvalAgreesWithReference(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		rec := &recordingChooser{r: rand.New(rand.NewSource(seed))}
		randomQueryForRef(rec)
		randomDocForRef(rec, 3)
		f.Add(rec.out)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := byteChooser(data)
		q := randomQueryForRef(&c)
		if q == nil {
			return
		}
		agreesWithReference(t, "fuzz", q, &xmlmodel.Document{Root: randomDocForRef(&c, 3)})
	})
}
