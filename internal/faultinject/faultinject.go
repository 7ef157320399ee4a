// Package faultinject installs seeded fault plans into campaign runner
// workers. A Plan is derived entirely from one uint64 seed — which task
// indexes are faulted and how — and implements runner.Hook, so the same
// seed always injects the same faults into the same tasks no matter how
// many workers execute the campaign: a failing fault-tolerance run is
// replayable the same way a failing fuzz scenario is.
//
// Four fault kinds cover the runner's recovery paths:
//
//   - Panic: the attempt panics before the task runs — the worker must
//     recover it into a *runner.TaskError and quarantine its simulator.
//   - Transient: the first Failures attempts fail with a
//     runner.Transient-marked error — retries must converge to the task's
//     normal, bit-identical result.
//   - Slow: the attempt blocks until the per-task deadline fires — the
//     runner must record a timeout and move on.
//   - PoisonReset: the attempt poisons the worker's pooled simulator
//     (core.Simulator.Poison simulates a broken Reset: every later run on
//     it perturbs its result) and then panics. Only the quarantine rule —
//     a panicked simulator never executes another task — keeps the
//     contamination out of every later task on that worker; a runner that
//     kept the simulator would produce digest divergences the harness
//     fault oracle catches.
//
// Expected computes the exact RunStats a plan must produce, so the oracle
// can require counter-for-counter equality, not just plausibility.
package faultinject

import (
	"context"
	"fmt"
	"sort"

	"gridrealloc/internal/core"
	"gridrealloc/internal/runner"
	"gridrealloc/internal/stats"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// None leaves the task alone.
	None Kind = iota
	// Panic panics on the task's first attempt.
	Panic
	// Transient fails the first Failures attempts with a retryable error.
	Transient
	// Slow blocks the attempt until its context (the per-task deadline or
	// the campaign's cancellation) fires.
	Slow
	// PoisonReset poisons the worker's simulator, then panics.
	PoisonReset
)

// String names the kind for reports and errors.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Transient:
		return "transient"
	case Slow:
		return "slow"
	case PoisonReset:
		return "poison-reset"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is one planned fault on one task index.
type Fault struct {
	Kind Kind
	// Failures is how many leading attempts fail (Transient only).
	Failures int
}

// Plan assigns faults to task indexes of an n-task campaign. It is derived
// deterministically from its seed and is safe for concurrent use by runner
// workers: all state is written at construction and only read afterwards.
type Plan struct {
	seed   uint64
	n      int
	faults map[int]Fault // by task index, for the hot per-attempt lookup
	order  []int         // faulted indexes, ascending, for deterministic iteration
}

// NewPlan derives the fault plan for an n-task campaign from seed: faulted
// distinct task indexes are drawn, and fault kinds cycle deterministically
// through Panic, Transient, Slow, PoisonReset (in that order of
// assignment), so any plan with at least four faults exercises every
// recovery path. faulted is clamped to [0, n].
func NewPlan(seed uint64, n, faulted int) *Plan {
	if faulted > n {
		faulted = n
	}
	if faulted < 0 {
		faulted = 0
	}
	p := &Plan{seed: seed, n: n, faults: make(map[int]Fault, faulted)}
	if n == 0 || faulted == 0 {
		return p
	}
	// A distinct RNG stream from the scenario generator's, so fault
	// placement never correlates with scenario content.
	rng := stats.NewRNG(seed ^ 0xfa17_1e57_5eed_c0de)
	kinds := [...]Kind{Panic, Transient, Slow, PoisonReset}
	for len(p.faults) < faulted {
		i := rng.Intn(n)
		if _, dup := p.faults[i]; dup {
			continue
		}
		f := Fault{Kind: kinds[len(p.faults)%len(kinds)]}
		if f.Kind == Transient {
			f.Failures = 1 + rng.Intn(2)
		}
		p.faults[i] = f
		p.order = append(p.order, i)
	}
	sort.Ints(p.order)
	return p
}

// Seed returns the seed the plan was derived from.
func (p *Plan) Seed() uint64 { return p.seed }

// Tasks returns the campaign size the plan was built for.
func (p *Plan) Tasks() int { return p.n }

// Fault returns the planned fault for task i (Kind None when unfaulted).
func (p *Plan) Fault(i int) Fault { return p.faults[i] }

// FaultedIndexes returns the faulted task indexes in ascending order.
func (p *Plan) FaultedIndexes() []int {
	out := make([]int, len(p.order))
	copy(out, p.order)
	return out
}

// CountByKind returns how many planned faults have the given kind.
func (p *Plan) CountByKind(k Kind) int {
	n := 0
	for _, i := range p.order {
		if p.faults[i].Kind == k {
			n++
		}
	}
	return n
}

// Expected computes the exact RunStats an uncancelled campaign running
// under this plan must produce, given the runner's MaxRetries setting:
// panics and poison-resets each fail once and quarantine one simulator,
// transients retry Failures times and then converge (or fail once retries
// are exhausted), slow tasks time out, and everything else completes.
func (p *Plan) Expected(maxRetries int) runner.RunStats {
	out := runner.RunStats{Tasks: int64(p.n), Completed: int64(p.n - len(p.faults))}
	for _, i := range p.order {
		switch f := p.faults[i]; f.Kind {
		case Panic, PoisonReset:
			out.RecoveredPanics++
			out.Failed++
		case Transient:
			if f.Failures <= maxRetries {
				out.Retries += int64(f.Failures)
				out.Completed++
			} else {
				out.Retries += int64(maxRetries)
				out.Failed++
			}
		case Slow:
			out.Timeouts++
			out.Failed++
		}
	}
	return out
}

// BeforeAttempt implements runner.Hook: it injects the planned fault for
// the given task attempt. Slow faults require the campaign to set
// Options.TaskTimeout, otherwise they block until campaign cancellation.
func (p *Plan) BeforeAttempt(ctx context.Context, worker, task, attempt int, sim *core.Simulator) error {
	f := p.faults[task]
	switch f.Kind {
	case Panic:
		if attempt == 0 {
			panic(fmt.Sprintf("faultinject: planned panic in task %d (worker %d)", task, worker))
		}
	case Transient:
		if attempt < f.Failures {
			return runner.Transient(fmt.Errorf("faultinject: planned transient fault in task %d (attempt %d of %d)",
				task, attempt+1, f.Failures))
		}
	case Slow:
		<-ctx.Done()
		return fmt.Errorf("faultinject: planned slow task %d gave up: %w", task, ctx.Err())
	case PoisonReset:
		if attempt == 0 {
			sim.Poison()
			panic(fmt.Sprintf("faultinject: planned poison-reset panic in task %d (worker %d)", task, worker))
		}
	}
	return nil
}
