package faultinject

import (
	"context"
	"testing"

	"gridrealloc/internal/runner"
)

// TestNewPlanDeterministic pins the replay contract: the same seed always
// derives the same plan, and different seeds place faults differently.
func TestNewPlanDeterministic(t *testing.T) {
	a := NewPlan(42, 100, 10)
	b := NewPlan(42, 100, 10)
	ai, bi := a.FaultedIndexes(), b.FaultedIndexes()
	if len(ai) != 10 || len(bi) != 10 {
		t.Fatalf("faulted counts: %d, %d", len(ai), len(bi))
	}
	for k := range ai {
		if ai[k] != bi[k] || a.Fault(ai[k]) != b.Fault(bi[k]) {
			t.Fatalf("plans from the same seed diverge at %d", k)
		}
	}
	c := NewPlan(43, 100, 10)
	same := true
	for k, i := range c.FaultedIndexes() {
		if i != ai[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds placed faults identically")
	}
}

// TestNewPlanKindCoverage checks the cycling assignment: any plan with at
// least four faults carries every fault kind, so every recovery path runs.
func TestNewPlanKindCoverage(t *testing.T) {
	p := NewPlan(7, 64, 4)
	for _, k := range []Kind{Panic, Transient, Slow, PoisonReset} {
		if p.CountByKind(k) != 1 {
			t.Fatalf("kind %s appears %d times in a 4-fault plan", k, p.CountByKind(k))
		}
	}
	for _, i := range p.FaultedIndexes() {
		if f := p.Fault(i); f.Kind == Transient && (f.Failures < 1 || f.Failures > 2) {
			t.Fatalf("transient at %d has %d failures", i, f.Failures)
		}
	}
	if p.Fault(-1).Kind != None {
		t.Fatal("out-of-range index reported a fault")
	}
}

// TestNewPlanClamps covers the degenerate shapes.
func TestNewPlanClamps(t *testing.T) {
	if got := len(NewPlan(1, 5, 9).FaultedIndexes()); got != 5 {
		t.Fatalf("faulted > n not clamped: %d", got)
	}
	if got := len(NewPlan(1, 5, -2).FaultedIndexes()); got != 0 {
		t.Fatalf("negative faulted not clamped: %d", got)
	}
	if got := len(NewPlan(1, 0, 3).FaultedIndexes()); got != 0 {
		t.Fatalf("empty campaign got faults: %d", got)
	}
}

// TestExpectedMatchesFaults pins the oracle arithmetic fault by fault.
func TestExpectedMatchesFaults(t *testing.T) {
	p := NewPlan(42, 50, 8)
	want := runner.RunStats{Tasks: 50}
	var transientRetries int64
	for _, i := range p.FaultedIndexes() {
		switch f := p.Fault(i); f.Kind {
		case Panic, PoisonReset:
			want.RecoveredPanics++
			want.Failed++
		case Transient:
			transientRetries += int64(f.Failures)
			want.Completed++
		case Slow:
			want.Timeouts++
			want.Failed++
		}
	}
	want.Retries = transientRetries
	want.Completed += int64(50 - len(p.FaultedIndexes()))
	if got := p.Expected(3); got != want {
		t.Fatalf("Expected(3) = %+v, want %+v", got, want)
	}
	// With zero retries allowed, every transient fails after maxRetries
	// retries were burned (none here) instead of converging.
	zero := p.Expected(0)
	if zero.Retries != 0 {
		t.Fatalf("Expected(0) counts retries: %+v", zero)
	}
	if zero.Failed != want.Failed+int64(p.CountByKind(Transient)) {
		t.Fatalf("Expected(0) failed = %d", zero.Failed)
	}
}

// TestBeforeAttemptTransient drives the hook directly through its transient
// schedule; the panic and poison paths are exercised end to end by the
// runner and harness tests.
func TestBeforeAttemptTransient(t *testing.T) {
	p := &Plan{n: 4, faults: map[int]Fault{2: {Kind: Transient, Failures: 2}}, order: []int{2}}
	ctx := context.Background()
	for attempt := 0; attempt < 2; attempt++ {
		err := p.BeforeAttempt(ctx, 0, 2, attempt, nil)
		if err == nil || !runner.IsTransient(err) {
			t.Fatalf("attempt %d: err = %v", attempt, err)
		}
	}
	if err := p.BeforeAttempt(ctx, 0, 2, 2, nil); err != nil {
		t.Fatalf("attempt past the failure budget still fails: %v", err)
	}
	if err := p.BeforeAttempt(ctx, 0, 1, 0, nil); err != nil {
		t.Fatalf("unfaulted task got an error: %v", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		None: "none", Panic: "panic", Transient: "transient",
		Slow: "slow", PoisonReset: "poison-reset", Kind(99): "kind(99)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", uint8(k), k.String(), want)
		}
	}
}
