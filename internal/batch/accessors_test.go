package batch

import (
	"testing"

	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

// TestSchedulerAccessors pins the trivial observer methods: they are part of
// the middleware-facing API surface, so a renamed or retyped field would
// otherwise only be caught by the downstream packages.
func TestSchedulerAccessors(t *testing.T) {
	spec := platform.ClusterSpec{Name: "acc", Cores: 4, Speed: 1}
	s, err := NewScheduler(spec, CBF)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Spec(); got.Name != spec.Name || got.Cores != spec.Cores {
		t.Fatalf("Spec() = %+v, want %+v", got, spec)
	}
	if got := s.Policy(); got != CBF {
		t.Fatalf("Policy() = %v, want CBF", got)
	}
	if got := s.Now(); got != 0 {
		t.Fatalf("Now() = %d before any advance, want 0", got)
	}
	if _, err := s.Advance(42); err != nil {
		t.Fatal(err)
	}
	if got := s.Now(); got != 42 {
		t.Fatalf("Now() = %d after Advance(42), want 42", got)
	}

	if got := s.OutagePolicy(); got != KillDisplaced {
		t.Fatalf("OutagePolicy() = %v by default, want KillDisplaced", got)
	}
	s.SetOutagePolicy(RequeueDisplaced)
	if got := s.OutagePolicy(); got != RequeueDisplaced {
		t.Fatalf("OutagePolicy() = %v after SetOutagePolicy, want RequeueDisplaced", got)
	}
}

// TestInvalidatePlanForcesRebuild verifies InvalidatePlan marks the plan
// dirty, so the next observation re-plans.
func TestInvalidatePlanForcesRebuild(t *testing.T) {
	s, err := NewScheduler(platform.ClusterSpec{Name: "inv", Cores: 2, Speed: 1}, CBF)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(workload.Job{ID: 1, Runtime: 10, Walltime: 20, Procs: 1}, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Settle the plan.
	_ = s.Snapshot()
	rebuildsBefore := s.ProfileStats().PlanRebuilds

	s.InvalidatePlan()
	_ = s.Snapshot()
	rebuildsAfter := s.ProfileStats().PlanRebuilds
	if rebuildsAfter == rebuildsBefore {
		t.Fatal("InvalidatePlan did not force a plan rebuild on the next observation")
	}
}
