package budget

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if err := b.ChargeStates(1 << 40); err != nil {
		t.Fatalf("nil budget charged: %v", err)
	}
	if err := b.ChargeClasses(1); err != nil {
		t.Fatalf("nil budget charged: %v", err)
	}
	if err := b.ChargeRefine(1); err != nil {
		t.Fatalf("nil budget charged: %v", err)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("nil budget errored: %v", err)
	}
	if b.Exhausted() != nil {
		t.Fatal("nil budget exhausted")
	}
	if u := b.Usage(); u != (Usage{}) {
		t.Fatalf("nil budget usage: %+v", u)
	}
	c := b.Child(Limits{MaxStates: 5})
	if c == nil || c.parent != nil {
		t.Fatal("nil.Child must build a root budget")
	}
}

func TestStateCapIsSticky(t *testing.T) {
	b := New(Limits{MaxStates: 10})
	for i := 0; i < 10; i++ {
		if err := b.ChargeStates(1); err != nil {
			t.Fatalf("charge %d within limit failed: %v", i, err)
		}
	}
	err := b.ChargeStates(1)
	if err == nil {
		t.Fatal("charge over limit succeeded")
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("exhaustion does not match ErrExhausted: %v", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Resource != ResourceStates || ex.Limit != 10 {
		t.Fatalf("wrong exhaustion detail: %v", err)
	}
	// Sticky: every later charge — of any resource — fails with the same
	// first reason.
	if err2 := b.ChargeClasses(1); err2 == nil {
		t.Fatal("post-exhaustion charge of another resource succeeded")
	} else if !errors.As(err2, &ex) || ex.Resource != ResourceStates {
		t.Fatalf("stickiness lost the first reason: %v", err2)
	}
	if b.Err() == nil || b.Exhausted() == nil {
		t.Fatal("Err/Exhausted must report the sticky exhaustion")
	}
	if got := b.Usage().Exhausted; got == "" {
		t.Fatal("Usage must carry the exhaustion reason")
	}
}

func TestDeadline(t *testing.T) {
	b := New(Limits{Deadline: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	err := b.ChargeStates(1)
	if err == nil {
		t.Fatal("charge after deadline succeeded")
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Resource != ResourceDeadline {
		t.Fatalf("wrong deadline error: %v", err)
	}
	if b.Err() == nil {
		t.Fatal("Err must observe the passed deadline")
	}
}

func TestChildPropagatesToParent(t *testing.T) {
	parent := New(Limits{MaxStates: 10})
	c1 := parent.Child(Limits{})
	c2 := parent.Child(Limits{})
	if err := c1.ChargeStates(6); err != nil {
		t.Fatalf("first child charge failed: %v", err)
	}
	if err := c2.ChargeStates(6); err == nil {
		t.Fatal("parent cap must bound the children's sum")
	}
	// The first child keeps working until it next observes the parent.
	if c1.Exhausted() != nil {
		t.Fatal("sibling exhaustion must not pre-poison c1")
	}
	if err := c1.ChargeStates(1); err == nil {
		t.Fatal("parent is exhausted; child charge must fail")
	}
}

func TestChildOwnCapAndDeadlineInheritance(t *testing.T) {
	parent := New(Limits{Deadline: time.Hour})
	c := parent.Child(Limits{MaxStates: 2})
	pd, _ := parent.Deadline()
	cd, ok := c.Deadline()
	if !ok || !cd.Equal(pd) {
		t.Fatalf("child deadline %v must inherit parent %v", cd, pd)
	}
	if err := c.ChargeStates(3); err == nil {
		t.Fatal("child's own cap must bind")
	}
	if parent.Err() != nil {
		t.Fatal("child cap exhaustion must not exhaust the parent")
	}
}

// TestHeadroom: headroom is the least remaining allowance over a budget
// and its ancestors; only strictly more room in the named resource
// exceeds, unlimited beats any cap, and an exhausted budget has none.
func TestHeadroom(t *testing.T) {
	fresh := New(Limits{MaxStates: 10}).Headroom()
	used := New(Limits{MaxStates: 10})
	_ = used.ChargeStates(4)
	if !fresh.Exceeds(used.Headroom(), ResourceStates) || used.Headroom().Exceeds(fresh, ResourceStates) {
		t.Error("a fresh cap of 10 must exceed one with 4 of 10 spent, not the reverse")
	}
	if New(Limits{MaxStates: 10}).Headroom().Exceeds(fresh, ResourceStates) {
		t.Error("equal limits must not exceed each other")
	}
	var unlimited *Budget
	if !unlimited.Headroom().Exceeds(fresh, ResourceStates) || fresh.Exceeds(unlimited.Headroom(), ResourceStates) {
		t.Error("a nil budget must exceed any cap")
	}
	if fresh.Exceeds(New(Limits{MaxStates: 2}).Headroom(), ResourceClasses) {
		t.Error("room in one resource must not count for another")
	}

	parent := New(Limits{MaxStates: 5})
	_ = parent.ChargeStates(3)
	child := parent.Child(Limits{MaxStates: 100})
	if got := child.Headroom(); got.Exceeds(New(Limits{MaxStates: 2}).Headroom(), ResourceStates) {
		t.Error("a child's room must be capped by its parent's remaining 2")
	}

	exhausted := New(Limits{MaxStates: 1})
	_ = exhausted.ChargeStates(2)
	if exhausted.Headroom().Exceeds(Headroom{}, ResourceClasses) {
		t.Error("an exhausted budget has no room in any resource")
	}

	later := New(Limits{Deadline: time.Hour}).Headroom()
	sooner := New(Limits{Deadline: time.Minute}).Headroom()
	if !later.Exceeds(sooner, ResourceDeadline) || sooner.Exceeds(later, ResourceDeadline) {
		t.Error("an hour left must exceed a minute left")
	}
	ctx, cancel := context.WithTimeout(NewContext(context.Background(), New(Limits{Deadline: time.Hour})), time.Second)
	defer cancel()
	if ContextHeadroom(ctx).Exceeds(sooner, ResourceDeadline) {
		t.Error("a context deadline must cap the budget's time left")
	}
}

func TestContextPlumbing(t *testing.T) {
	b := New(Limits{MaxClasses: 1})
	ctx := NewContext(context.Background(), b)
	if FromContext(ctx) != b {
		t.Fatal("FromContext lost the budget")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext invented a budget")
	}
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("NewContext must not impose a deadline")
	}
	db := New(Limits{Deadline: time.Hour})
	dctx, cancel := db.Context(context.Background())
	defer cancel()
	if _, ok := dctx.Deadline(); !ok {
		t.Fatal("Budget.Context must impose the budget deadline")
	}
	if FromContext(dctx) != db {
		t.Fatal("Budget.Context must attach the budget")
	}
}

func TestConcurrentCharges(t *testing.T) {
	b := New(Limits{MaxStates: 1000})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := b.ChargeStates(1); err != nil {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if b.Exhausted() == nil {
		t.Fatal("4000 charges against a 1000 cap must exhaust")
	}
	if failures.Load() == 0 {
		t.Fatal("some charges must have failed")
	}
}
