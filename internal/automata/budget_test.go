package automata

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/regex"
)

// blowupExpr is a content model whose DFA needs well over a handful of
// states, so a MaxStates budget of a few states reliably exhausts
// mid-construction.
const blowupExpr = "(a|b)*, a, (a|b), (a|b), (a|b), (a|b), (a|b)"

// TestDFABudgetExhaustionNotCached: a compile aborted by budget exhaustion
// must return the exhaustion error, cache nothing, and leave the key clean
// so an unbudgeted (or better-funded) retry compiles normally — after
// which even a starved budget gets the cached DFA for free.
func TestDFABudgetExhaustionNotCached(t *testing.T) {
	cp := NewCompiler(64)
	e := mp(blowupExpr)

	tiny := budget.New(budget.Limits{MaxStates: 2})
	if _, err := cp.DFABudget(e, tiny); err == nil {
		t.Fatal("starved compile must fail")
	} else if tiny.Exhausted() == nil {
		t.Fatalf("failure must be a budget exhaustion, got %v", err)
	}
	if st := cp.Stats(); st.Size != 0 {
		t.Fatalf("failed compile cached %d entries, want 0", st.Size)
	}

	d, err := cp.DFABudget(e, nil)
	if err != nil {
		t.Fatalf("unbudgeted retry failed: %v", err)
	}
	if d == nil || d.IsEmpty() {
		t.Fatal("retry must produce the real DFA")
	}

	// Resident now: the same starved budget is satisfied from cache.
	tiny2 := budget.New(budget.Limits{MaxStates: 2})
	d2, err := cp.DFABudget(e, tiny2)
	if err != nil {
		t.Fatalf("cached lookup must not charge the budget: %v", err)
	}
	if d2 != d {
		t.Error("cache hit must return the shared DFA")
	}
}

// TestDFABudgetConcurrentStarvedAndFunded hammers one compiler with a mix
// of starved and unlimited compiles of the same expression from many
// goroutines (run under -race): no goroutine may see a wrong result shape,
// and the cache must end up holding the real DFA. Starved callers either
// fail with exhaustion or win a cache hit; funded callers must succeed on
// their first call, even when they join a starved caller's flight.
func TestDFABudgetConcurrentStarvedAndFunded(t *testing.T) {
	cp := NewCompiler(64)
	e := mp(blowupExpr)

	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					b := budget.New(budget.Limits{MaxStates: 2})
					d, err := cp.DFABudget(e, b)
					if err == nil && (d == nil || d.IsEmpty()) {
						t.Error("starved success must be a real cached DFA")
					}
				} else {
					d, err := cp.DFABudget(e, nil)
					if err != nil || d == nil || d.IsEmpty() {
						t.Errorf("funded compile failed: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if _, err := cp.DFABudget(e, budget.New(budget.Limits{MaxStates: 2})); err != nil {
		t.Fatalf("DFA must be resident after the hammer, got %v", err)
	}
}

// pausingObserver blocks the first successful budget charge it sees until
// released: it holds a budgeted computation in the middle of its work.
type pausingObserver struct {
	once             sync.Once
	entered, release chan struct{}
}

func newPausingObserver() *pausingObserver {
	return &pausingObserver{entered: make(chan struct{}), release: make(chan struct{})}
}

func (o *pausingObserver) BudgetCharge(string, int64) {
	o.once.Do(func() {
		close(o.entered)
		<-o.release
	})
}

func (o *pausingObserver) BudgetEvent(string, int64) {}

// budgetedOp is a budgeted entry point that shares the compile cache,
// with the answer an unlimited compile gives.
type budgetedOp struct {
	name string
	call func(cp *Compiler, bud *budget.Budget) (any, error)
	want func() any
}

func budgetedOps() []budgetedOp {
	e, other := mp(blowupExpr), mp("(a|b)*, b, (a|b), (a|b), (a|b), (a|b), (a|b)")
	return []budgetedOp{
		{"DFA", func(cp *Compiler, bud *budget.Budget) (any, error) {
			d, err := cp.DFABudget(e, bud)
			if err != nil {
				return nil, err
			}
			return len(d.Trans), nil
		}, func() any { return len(FromExpr(regex.Simplify(e)).Minimize().Trans) }},
		{"Witness", func(cp *Compiler, bud *budget.Budget) (any, error) {
			w, err := cp.WitnessBudget(e, other, bud)
			return fmt.Sprint(w), err
		}, func() any { return fmt.Sprint(NewCompiler(64).Witness(e, other)) }},
		{"Contains", func(cp *Compiler, bud *budget.Budget) (any, error) {
			return cp.ContainsBudget(e, other, bud)
		}, func() any { return false }},
		{"Equivalent", func(cp *Compiler, bud *budget.Budget) (any, error) {
			return cp.EquivalentBudget(e, other, bud)
		}, func() any { return false }},
	}
}

// startStarvedFlight starts op under a MaxStates:2 budget and holds that
// caller inside its cold computation, leading the flight. release lets it
// run out; its error arrives on leaderErr.
func startStarvedFlight(cp *Compiler, op budgetedOp) (leaderErr <-chan error, release func()) {
	starved := budget.New(budget.Limits{MaxStates: 2})
	pause := newPausingObserver()
	starved.SetObserver(pause)
	errc := make(chan error, 1)
	go func() {
		_, err := op.call(cp, starved)
		errc <- err
	}()
	<-pause.entered
	return errc, func() { close(pause.release) }
}

// waitDedups yields until the cache has counted n callers waiting on a
// flight.
func waitDedups(cp *Compiler, n int64) {
	for cp.Stats().Dedups < n {
		runtime.Gosched()
	}
}

type opResult struct {
	v   any
	err error
}

// TestBudgetedJoinerOfStarvedFlightSucceeds makes the budget leak
// deterministic: a MaxStates:2 caller starts a cold computation and is
// held inside it; a funded caller — unbudgeted, or with a far larger
// cap — then joins that flight (the cache counts the dedup) before the
// starved leader runs out. The leader must fail with its exhaustion, and
// the joiner, which has more room than the leader had, must get the real
// answer on its first call, which is then cached. Every budgeted entry
// point that shares the cache is covered.
func TestBudgetedJoinerOfStarvedFlightSucceeds(t *testing.T) {
	joiners := []struct {
		name string
		bud  func() *budget.Budget
	}{
		{"unbudgeted", func() *budget.Budget { return nil }},
		{"larger-cap", func() *budget.Budget { return budget.New(budget.Limits{MaxStates: 1 << 20}) }},
	}
	for _, op := range budgetedOps() {
		for _, j := range joiners {
			t.Run(op.name+"/"+j.name, func(t *testing.T) {
				cp := NewCompiler(64)
				leaderErr, release := startStarvedFlight(cp, op)
				joined := make(chan opResult, 1)
				go func() {
					v, err := op.call(cp, j.bud())
					joined <- opResult{v, err}
				}()
				waitDedups(cp, 1)
				release()

				if err := <-leaderErr; !errors.Is(err, budget.ErrExhausted) {
					t.Fatalf("starved leader: err = %v, want budget exhaustion", err)
				}
				r := <-joined
				if r.err != nil {
					t.Fatalf("funded joiner of a starved flight failed on its first call: %v", r.err)
				}
				if want := op.want(); r.v != want {
					t.Errorf("funded joiner got %v, want %v", r.v, want)
				}
				// The joiner's answer is cached: a starved caller now gets it free.
				if v, err := op.call(cp, budget.New(budget.Limits{MaxStates: 2})); err != nil || v != r.v {
					t.Errorf("after the joiner: starved call = %v, %v; want the cached %v", v, err, r.v)
				}
			})
		}
	}
}

// TestEqualBudgetJoinersShareStarvedFlight: callers under the same limits
// as a starved leader (as every budgeted caller of a serving mediator is)
// cannot finish where it ran out, so they share its exhaustion instead of
// each recomputing: N joiners cost no computation beyond the leader's,
// and their budgets are never charged.
func TestEqualBudgetJoinersShareStarvedFlight(t *testing.T) {
	const joiners = 4
	for _, op := range budgetedOps() {
		t.Run(op.name, func(t *testing.T) {
			cp := NewCompiler(64)
			leaderErr, release := startStarvedFlight(cp, op)
			missesBefore := cp.Stats().Misses
			buds := make([]*budget.Budget, joiners)
			joined := make(chan opResult, joiners)
			for i := range buds {
				buds[i] = budget.New(budget.Limits{MaxStates: 2})
				go func(bud *budget.Budget) {
					v, err := op.call(cp, bud)
					joined <- opResult{v, err}
				}(buds[i])
			}
			waitDedups(cp, joiners)
			release()

			if err := <-leaderErr; !errors.Is(err, budget.ErrExhausted) {
				t.Fatalf("starved leader: err = %v, want budget exhaustion", err)
			}
			for range joiners {
				if r := <-joined; !errors.Is(r.err, budget.ErrExhausted) {
					t.Errorf("equal-budget joiner: err = %v, want the leader's exhaustion", r.err)
				}
			}
			if got := cp.Stats().Misses; got != missesBefore {
				t.Errorf("%d equal-budget joiners ran %d computations, want 0", joiners, got-missesBefore)
			}
			for i, bud := range buds {
				if u := bud.Usage(); u.States != 0 {
					t.Errorf("joiner %d was charged %d states, want 0", i, u.States)
				}
			}
		})
	}
}

// TestReduceBudgetFallsBack: reduction is an optimization, so exhaustion
// must not error — ReduceBudget degrades to the syntactic simplification
// and its output stays language-equivalent to the input.
func TestReduceBudgetFallsBack(t *testing.T) {
	e := mp("(a | a, b | a) , (c | c)")
	starved := budget.New(budget.Limits{MaxStates: 1})
	got := ReduceBudget(e, starved)
	if got == nil {
		t.Fatal("ReduceBudget returned nil")
	}
	if !Equivalent(got, e) {
		t.Fatalf("fallback output %s is not equivalent to input %s", got, e)
	}
}
