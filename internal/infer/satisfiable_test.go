package infer

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/regex"
	"repro/internal/xmas"
)

func TestClassifyDTD(t *testing.T) {
	cases := []struct {
		name string
		d    *dtd.DTD
		want DTDClass
	}{
		{"paper D1 is duplicate-free", mustDTD(t, d1Text), ClassDuplicateFree},
		{"duplicates with alts under star are DC", func() *dtd.DTD {
			d := dtd.New("r")
			ab := func() regex.Expr { return regex.Rep(regex.Or(regex.Nm("a"), regex.Nm("b"))) }
			d.Declare("r", dtd.M(regex.Cat(ab(), regex.Nm("c"), ab())))
			for _, n := range []string{"a", "b", "c"} {
				d.Declare(n, dtd.PC())
			}
			return d
		}(), ClassDisjunctionCapsuled},
		{"duplicated name under bare alt is general", func() *dtd.DTD {
			d := dtd.New("r")
			d.Declare("r", dtd.M(regex.Or(
				regex.Cat(regex.Nm("a"), regex.Nm("b")),
				regex.Cat(regex.Nm("b"), regex.Nm("c")))))
			for _, n := range []string{"a", "b", "c"} {
				d.Declare(n, dtd.PC())
			}
			return d
		}(), ClassGeneral},
	}
	for _, tc := range cases {
		if got := ClassifyDTD(tc.d); got != tc.want {
			t.Errorf("%s: class = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func sat(t *testing.T, qs string, d *dtd.DTD) Verdict {
	t.Helper()
	q, err := xmas.Parse(qs)
	if err != nil {
		t.Fatalf("parse query: %v", err)
	}
	return Satisfiability(context.Background(), q, d)
}

func TestSatisfiabilityVerdicts(t *testing.T) {
	d1 := mustDTD(t, d1Text)
	d11 := mustDTD(t, d11Text)

	cases := []struct {
		name, q string
		d       *dtd.DTD
		want    Verdict
	}{
		{"root name mismatch", "SELECT P WHERE P:<library/>", d1, VerdictUnsatisfiable},
		{"plain pick", "SELECT P WHERE <department>P:<professor/></>", d1, VerdictSatisfiable},
		{"text under element content", "SELECT P WHERE P:<department><professor>CS</professor></>", d1, VerdictUnsatisfiable},
		{"undeclared child name", "SELECT P WHERE <department>P:<dean/></>", d1, VerdictUnsatisfiable},
		{"alt exclusion: journal and conference conflict",
			"SELECT P WHERE <department><professor>P:<publication><journal/><conference/></publication></></>",
			d1, VerdictUnsatisfiable},
		{"multiplicity: two publications under a single-publication gradStudent",
			"SELECT P WHERE <department>P:<gradStudent><publication id=A/><publication id=B/></></> AND A != B",
			d11, VerdictUnsatisfiable},
		{"two publications fine under professor (publication+)",
			"SELECT P WHERE <department>P:<professor><publication id=A/><publication id=B/></></> AND A != B",
			d11, VerdictSatisfiable},
		{"qualifier satisfiable", "SELECT P WHERE <department>P:<professor>[<publication/>]</></>", d1, VerdictSatisfiable},
		{"qualifier on impossible name", "SELECT P WHERE <department>P:<professor>[<gradStudent/>]</></>", d1, VerdictUnsatisfiable},
	}
	for _, tc := range cases {
		if got := sat(t, tc.q, tc.d); got != tc.want {
			t.Errorf("%s: verdict = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSatisfiabilityMatchesClassifier cross-checks the fast tier against
// the full classifier on the paper DTDs (both duplicate-free, so the fast
// tier is exact): for qualifier-free, non-recursive queries the two must
// agree on unsatisfiable-vs-satisfiable.
func TestSatisfiabilityMatchesClassifier(t *testing.T) {
	queries := []string{
		q2Text,
		q3Text,
		"SELECT P WHERE <department>P:<professor/></>",
		"SELECT P WHERE <department>P:<gradStudent><publication id=A/><publication id=B/></></> AND A != B",
		"SELECT P WHERE <department><name>CS</name>P:<course/></>",
		"SELECT P WHERE <department>P:<professor><publication><journal/><conference/></publication></></>",
	}
	for _, d := range []*dtd.DTD{mustDTD(t, d1Text), mustDTD(t, d11Text)} {
		for _, qs := range queries {
			q := xmas.MustParse(qs)
			fastV := Satisfiability(context.Background(), q, d)
			fullV := satisfiabilityFull(context.Background(), q, d)
			if fastV == VerdictUnknown || fullV == VerdictUnknown {
				t.Errorf("unexpected unknown verdict for %q (fast=%v full=%v)", qs, fastV, fullV)
				continue
			}
			if fastV != fullV {
				t.Errorf("verdict mismatch for %q: fast=%v full=%v", qs, fastV, fullV)
			}
		}
	}
}

// TestSatisfiabilityNeverRefutesWitnessed is the soundness property: for
// random DTDs and random queries, whenever a sampled valid document
// actually matches the query, the verdict must not be Unsatisfiable.
func TestSatisfiabilityNeverRefutesWitnessed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		d := satRandomDTD(rng)
		if errs := d.Check(); len(errs) > 0 {
			continue
		}
		q := satRandomQuery(rng, d)
		v := Satisfiability(context.Background(), q, d)
		if v != VerdictUnsatisfiable {
			continue
		}
		g, err := gen.New(d, gen.Options{Seed: int64(trial), AssignIDs: true})
		if err != nil {
			continue // unrealizable root etc.; nothing to witness
		}
		for i, doc := range g.Corpus(40) {
			if engine.Matches(q, doc) {
				t.Fatalf("trial %d: verdict unsatisfiable but document %d matches\nquery: %s\ndtd: %s",
					trial, i, q, d)
			}
		}
	}
}

// satRandomDTD builds a small random DTD over a fixed name pool; models
// are random regexes mixing concat, alt, repetition — spanning all three
// tractable classes (unlike the layered fuzz_test generator, it can also
// produce recursion).
func satRandomDTD(rng *rand.Rand) *dtd.DTD {
	pool := []string{"a", "b", "c", "d", "e"}
	d := dtd.New("root")
	var randExpr func(depth int) regex.Expr
	randExpr = func(depth int) regex.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			return regex.Nm(pool[rng.Intn(len(pool))])
		}
		switch rng.Intn(6) {
		case 0:
			return regex.Cat(randExpr(depth-1), randExpr(depth-1))
		case 1:
			return regex.Or(randExpr(depth-1), randExpr(depth-1))
		case 2:
			return regex.Rep(randExpr(depth - 1))
		case 3:
			return regex.Rep1(randExpr(depth - 1))
		case 4:
			return regex.Maybe(randExpr(depth - 1))
		default:
			return regex.Cat(randExpr(depth-1), randExpr(depth-1), randExpr(depth-1))
		}
	}
	d.Declare("root", dtd.M(randExpr(3)))
	for _, n := range pool {
		if rng.Intn(3) == 0 {
			d.Declare(n, dtd.M(randExpr(2)))
		} else {
			d.Declare(n, dtd.PC())
		}
	}
	return d
}

// satRandomQuery builds a random pick-element query (depth ≤ 3) over the
// DTD's names plus one undeclared name, with occasional qualifiers,
// wildcards and disjunctions.
func satRandomQuery(rng *rand.Rand, d *dtd.DTD) *xmas.Query {
	names := append(append([]string(nil), d.Names()...), "zzz")
	var randCond func(depth int) *xmas.Cond
	randCond = func(depth int) *xmas.Cond {
		c := &xmas.Cond{}
		switch rng.Intn(5) {
		case 0: // wildcard
		case 1:
			c.Names = []string{names[rng.Intn(len(names))], names[rng.Intn(len(names))]}
		default:
			c.Names = []string{names[rng.Intn(len(names))]}
		}
		if depth > 0 {
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				k := randCond(depth - 1)
				k.Qualifier = rng.Intn(4) == 0
				c.Children = append(c.Children, k)
			}
		}
		if len(c.Children) == 0 && rng.Intn(5) == 0 {
			c.HasText = true
			c.Text = "x"
		}
		return c
	}
	root := &xmas.Cond{Names: []string{d.Root}}
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		k := randCond(2)
		k.Qualifier = rng.Intn(4) == 0
		root.Children = append(root.Children, k)
	}
	// Bind the pick on the first regular child, or the root.
	pick := root
	for _, k := range root.Children {
		if !k.Qualifier {
			pick = k
			break
		}
	}
	pick.Var = "P"
	return &xmas.Query{Name: "answer", PickVar: "P", Root: root}
}

func TestSatisfiabilityCachedVerdicts(t *testing.T) {
	PurgeSatisfiabilityCache()
	ResetSatisfiabilityCacheStats()
	d := mustDTD(t, d1Text)
	q := xmas.MustParse("SELECT P WHERE <department>P:<dean/></>")

	v, hit := SatisfiabilityCached(context.Background(), q, d)
	if v != VerdictUnsatisfiable || hit {
		t.Fatalf("first lookup: verdict=%v hit=%v, want unsatisfiable miss", v, hit)
	}
	v, hit = SatisfiabilityCached(context.Background(), q, d)
	if v != VerdictUnsatisfiable || !hit {
		t.Fatalf("second lookup: verdict=%v hit=%v, want unsatisfiable hit", v, hit)
	}
	st := SatisfiabilityCacheStats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("stats = %+v, want at least one hit and one miss", st)
	}

	// Variable names, text values and "!=" constraints are not part of the
	// skeleton: an isomorphic query must hit.
	q2 := xmas.MustParse("SELECT Q WHERE <department>Q:<dean id=X/></>")
	if _, hit = SatisfiabilityCached(context.Background(), q2, d); !hit {
		t.Fatal("isomorphic query skeleton should hit the verdict cache")
	}
}

func TestSatisfiabilityUnknownNotCached(t *testing.T) {
	PurgeSatisfiabilityCache()
	// A general-class model the fast tier cannot decide, under a budget too
	// small for the classifier.
	d := dtd.New("root")
	d.Declare("root", dtd.M(regex.Or(
		regex.Cat(regex.Nm("a"), regex.Nm("a"), regex.Nm("b")),
		regex.Nm("b"))))
	d.Declare("a", dtd.PC())
	d.Declare("b", dtd.PC())
	q := xmas.MustParse("SELECT P WHERE <root><a id=X/>P:<a id=Y/></> AND X != Y")

	exhausted := budget.New(budget.Limits{MaxRefineSteps: 1})
	if err := exhausted.ChargeRefine(10); err == nil {
		t.Fatal("budget should be exhausted by an oversized charge")
	}
	ctx := budget.NewContext(context.Background(), exhausted)
	v, _ := SatisfiabilityCached(ctx, q, d)
	if v != VerdictUnknown {
		t.Fatalf("verdict under exhausted budget = %v, want unknown", v)
	}
	// With a fresh unbounded context the definitive verdict must be
	// reachable — i.e. the Unknown was not cached.
	v, hit := SatisfiabilityCached(context.Background(), q, d)
	if v == VerdictUnknown {
		t.Fatal("definitive verdict shadowed by a cached Unknown")
	}
	if hit {
		t.Fatal("verdict cannot be a cache hit: Unknown must not have been cached")
	}
}

// pausingObserver blocks the first successful budget charge it sees until
// released: it holds a budgeted computation in the middle of its work.
type pausingObserver struct {
	once             sync.Once
	entered, release chan struct{}
}

func (o *pausingObserver) BudgetCharge(string, int64) {
	o.once.Do(func() {
		close(o.entered)
		<-o.release
	})
}

func (o *pausingObserver) BudgetEvent(string, int64) {}

// starvedVerdictFixture is a query whose verdict the fast tier cannot
// decide, so the budgeted classifier runs; the unlimited run refines 15
// AST nodes, and a MaxRefineSteps:8 budget lets the first charge succeed
// (and pause) before it runs out.
func starvedVerdictFixture(t *testing.T) (*xmas.Query, *dtd.DTD, Verdict) {
	t.Helper()
	PurgeSatisfiabilityCache()
	ResetSatisfiabilityCacheStats()
	d := dtd.New("root")
	d.Declare("root", dtd.M(regex.Or(
		regex.Cat(regex.Nm("a"), regex.Nm("a"), regex.Nm("b")),
		regex.Nm("b"))))
	d.Declare("a", dtd.PC())
	d.Declare("b", dtd.PC())
	q := xmas.MustParse("SELECT P WHERE <root><a id=X/>P:<a id=Y/></> AND X != Y")
	want := Satisfiability(context.Background(), q, d)
	if want == VerdictUnknown {
		t.Fatal("fixture must have a definitive verdict under an unlimited budget")
	}
	return q, d, want
}

func starvedVerdictBudget() *budget.Budget {
	return budget.New(budget.Limits{MaxRefineSteps: 8})
}

// startStarvedVerdict starts a verdict computation under a starved budget
// and holds it inside the classifier, leading the flight. release lets
// it run out; its verdict arrives on leader.
func startStarvedVerdict(t *testing.T, q *xmas.Query, d *dtd.DTD) (leader <-chan Verdict, release func()) {
	t.Helper()
	starved := starvedVerdictBudget()
	pause := &pausingObserver{entered: make(chan struct{}), release: make(chan struct{})}
	starved.SetObserver(pause)
	out := make(chan Verdict, 1)
	go func() {
		v, _ := SatisfiabilityCached(budget.NewContext(context.Background(), starved), q, d)
		out <- v
	}()
	select {
	case <-pause.entered:
	case v := <-out:
		t.Fatalf("starved leader answered %v without a successful budget charge to pause on", v)
	}
	return out, func() { close(pause.release) }
}

func waitVerdictDedups(n int64) {
	for SatisfiabilityCacheStats().Dedups < n {
		runtime.Gosched()
	}
}

// TestSatisfiabilityJoinerDecidesUnderOwnBudget: a caller that joins a
// verdict computation led by a starved caller must not inherit the
// leader's Unknown. The starved leader is held inside the classifier
// until an unbudgeted caller has joined its flight; the leader then runs
// out and answers Unknown, and the joiner must still reach (and cache)
// the definitive verdict on its first call.
func TestSatisfiabilityJoinerDecidesUnderOwnBudget(t *testing.T) {
	q, d, want := starvedVerdictFixture(t)
	leader, release := startStarvedVerdict(t, q, d)
	joined := make(chan Verdict, 1)
	go func() {
		v, _ := SatisfiabilityCached(context.Background(), q, d)
		joined <- v
	}()
	waitVerdictDedups(1)
	release()

	if v := <-leader; v != VerdictUnknown {
		t.Fatalf("starved leader's verdict = %v, want unknown", v)
	}
	if v := <-joined; v != want {
		t.Fatalf("unbudgeted joiner's verdict = %v, want %v", v, want)
	}
	if v, hit := SatisfiabilityCached(context.Background(), q, d); v != want || !hit {
		t.Errorf("after the joiner: verdict=%v hit=%v, want the cached %v", v, hit, want)
	}
}

// TestSatisfiabilityEqualBudgetJoinersShareUnknown: callers under the
// same limits as a starved leader would only run out again, so they share
// its Unknown: N joiners cost no computation beyond the leader's, and
// their budgets are never charged.
func TestSatisfiabilityEqualBudgetJoinersShareUnknown(t *testing.T) {
	const joiners = 4
	q, d, _ := starvedVerdictFixture(t)
	leader, release := startStarvedVerdict(t, q, d)
	missesBefore := SatisfiabilityCacheStats().Misses
	buds := make([]*budget.Budget, joiners)
	joined := make(chan Verdict, joiners)
	for i := range buds {
		buds[i] = starvedVerdictBudget()
		go func(bud *budget.Budget) {
			v, _ := SatisfiabilityCached(budget.NewContext(context.Background(), bud), q, d)
			joined <- v
		}(buds[i])
	}
	waitVerdictDedups(joiners)
	release()

	if v := <-leader; v != VerdictUnknown {
		t.Fatalf("starved leader's verdict = %v, want unknown", v)
	}
	for range joiners {
		if v := <-joined; v != VerdictUnknown {
			t.Errorf("equal-budget joiner's verdict = %v, want the leader's unknown", v)
		}
	}
	if got := SatisfiabilityCacheStats().Misses; got != missesBefore {
		t.Errorf("%d equal-budget joiners ran %d computations, want 0", joiners, got-missesBefore)
	}
	for i, bud := range buds {
		if u := bud.Usage(); u.RefineSteps != 0 || u.States != 0 || u.Classes != 0 {
			t.Errorf("joiner %d was charged %+v, want nothing", i, u)
		}
	}
}

func TestSatisfiabilityKeyDistinguishes(t *testing.T) {
	d := mustDTD(t, d1Text)
	qa := xmas.MustParse("SELECT P WHERE <department>P:<professor/></>")
	qb := xmas.MustParse("SELECT P WHERE <department>P:<professor><publication/></professor></>")
	if satisfiabilityKey(qa, d) == satisfiabilityKey(qb, d) {
		t.Fatal("different skeletons share a key")
	}
	qc := xmas.MustParse("SELECT P WHERE <department>P:<professor>[<publication/>]</professor></>")
	if satisfiabilityKey(qb, d) == satisfiabilityKey(qc, d) {
		t.Fatal("qualifier flag must be part of the skeleton key")
	}
	if !strings.Contains(satisfiabilityKey(qa, d), "professor") {
		t.Fatal("key should embed condition names")
	}
}
