package runner_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"gridrealloc/internal/core"
	"gridrealloc/internal/leakcheck"
	"gridrealloc/internal/runner"
)

// countingSource is a SimSource that tracks every lease event and enforces
// the quarantine rule from the source's side: a Release of a simulator that
// was Discarded earlier, or of one the source never handed out, fails the
// test. failAfter bounds the number of successful Acquires (negative means
// unlimited); later acquires fail with errExhausted.
type countingSource struct {
	t         *testing.T
	mu        sync.Mutex
	acquired  int
	released  int
	discarded int
	failAfter int
	out       map[*core.Simulator]bool // currently leased
	dead      map[*core.Simulator]bool // quarantined forever
}

var errExhausted = errors.New("source exhausted")

func newCountingSource(t *testing.T, failAfter int) *countingSource {
	return &countingSource{
		t:         t,
		failAfter: failAfter,
		out:       make(map[*core.Simulator]bool),
		dead:      make(map[*core.Simulator]bool),
	}
}

func (s *countingSource) Acquire(ctx context.Context) (*core.Simulator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAfter >= 0 && s.acquired >= s.failAfter {
		return nil, errExhausted
	}
	s.acquired++
	sim := core.NewSimulator()
	s.out[sim] = true
	return sim, nil
}

func (s *countingSource) Release(sim *core.Simulator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead[sim] {
		s.t.Error("quarantined simulator released back to the source")
	}
	if !s.out[sim] {
		s.t.Error("released a simulator the source never leased")
	}
	delete(s.out, sim)
	s.released++
}

func (s *countingSource) Discard(sim *core.Simulator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.out[sim] {
		s.t.Error("discarded a simulator the source never leased")
	}
	delete(s.out, sim)
	s.dead[sim] = true
	s.discarded++
}

// TestSimSourceLeaseBalance pins the lease contract on the healthy path:
// every acquired simulator comes back through Release exactly once, nothing
// is discarded, and the pool never acquires more simulators than workers.
func TestSimSourceLeaseBalance(t *testing.T) {
	snap := leakcheck.Take()
	src := newCountingSource(t, -1)
	out, stats, err := runner.RunCtx(context.Background(), 16,
		runner.Options{Workers: 4, Sims: src},
		func(_ context.Context, i int, sim *core.Simulator) (int, error) {
			if sim == nil {
				t.Error("task ran without a simulator")
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if stats.Completed != 16 || stats.RecoveredPanics != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.acquired == 0 || src.acquired > 4 {
		t.Fatalf("acquired %d simulators with 4 workers", src.acquired)
	}
	if src.released != src.acquired || src.discarded != 0 || len(src.out) != 0 {
		t.Fatalf("lease imbalance: acquired %d released %d discarded %d outstanding %d",
			src.acquired, src.released, src.discarded, len(src.out))
	}
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSimSourcePanicDiscardsToSource pins the quarantine hand-off: a panic
// routes the worker's simulator through Discard (never Release), the worker
// re-acquires a fresh one and finishes the campaign, and the final release
// balance accounts for every lease.
func TestSimSourcePanicDiscardsToSource(t *testing.T) {
	src := newCountingSource(t, -1)
	out, stats, err := runner.RunCtx(context.Background(), 4,
		runner.Options{Workers: 1, Sims: src},
		func(_ context.Context, i int, _ *core.Simulator) (int, error) {
			if i == 1 {
				panic("boom")
			}
			return i, nil
		})
	if err == nil || !errors.Is(err, runner.ErrTaskPanic) {
		t.Fatalf("err = %v, want ErrTaskPanic", err)
	}
	if out[0] != 0 || out[2] != 2 || out[3] != 3 {
		t.Fatalf("out = %v", out)
	}
	if stats.Completed != 3 || stats.Failed != 1 || stats.RecoveredPanics != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.acquired != 2 || src.discarded != 1 || src.released != 1 || len(src.out) != 0 {
		t.Fatalf("lease imbalance: acquired %d released %d discarded %d outstanding %d",
			src.acquired, src.released, src.discarded, len(src.out))
	}
}

// TestSimSourceAcquireFailureSkips pins the draining-source contract: when
// Acquire fails while the campaign context is live, remaining tasks are
// Skipped (not silently lost) and the acquire error becomes the campaign
// error.
func TestSimSourceAcquireFailureSkips(t *testing.T) {
	// One successful acquire, then the source dries up. Worker 0 runs task 0,
	// the task-1 panic quarantines its simulator, and the re-acquire fails:
	// tasks 2 and 3 must be skipped and the campaign error must surface the
	// source failure.
	src := newCountingSource(t, 1)
	stats, err := runner.StreamCtx(context.Background(), 4,
		runner.Options{Workers: 1, Sims: src},
		func(_ context.Context, i int, _ *core.Simulator) (int, error) {
			if i == 1 {
				panic("boom")
			}
			return i, nil
		}, nil)
	if !errors.Is(err, errExhausted) {
		t.Fatalf("err = %v, want errExhausted", err)
	}
	if stats.Completed != 1 || stats.Failed != 1 || stats.Skipped != 2 {
		t.Fatalf("stats = %+v", stats)
	}

	// The collecting entry point must wrap the same error.
	src = newCountingSource(t, 0)
	_, stats, err = runner.RunCtx(context.Background(), 3,
		runner.Options{Workers: 2, Sims: src},
		func(_ context.Context, i int, _ *core.Simulator) (int, error) { return i, nil })
	if !errors.Is(err, errExhausted) {
		t.Fatalf("RunCtx err = %v, want errExhausted", err)
	}
	if !strings.Contains(err.Error(), "cancelled after 0 of 3") {
		t.Fatalf("RunCtx err = %v, want task accounting in message", err)
	}
	if stats.Skipped != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}
