package gridrealloc_test

// Quarantine-equivalence harness: the runner's fault model promises that a
// simulator which panicked is discarded — never reused — and its worker
// continues on a fresh one. This test proves the promise the same strong
// way reuse_test.go proves the Reset contract: per-configuration digests
// over the full 72-configuration A/B grid, with panicking, poisoning tasks
// injected mid-campaign.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	gridrealloc "gridrealloc"
	"gridrealloc/internal/core"
	"gridrealloc/internal/runner"
)

// TestQuarantineDigest72Grid runs the 72-configuration grid on a single
// worker whose tasks panic (after poisoning their simulator) at three
// indexes spread across the campaign. Poison simulates a broken Reset —
// every later run on that simulator perturbs its result — so the only way
// the other 69 configurations can match their fresh-simulator digests
// bit-for-bit is if the runner really replaced the simulator after each
// panic instead of returning it to the pool.
func TestQuarantineDigest72Grid(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the 72-configuration grid twice")
	}
	cfgs := abConfigs()
	fresh := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		res, err := gridrealloc.RunScenario(cfg)
		if err != nil {
			t.Fatalf("fresh %s/%s/%s/%s/%s: %v", cfg.Scenario, cfg.Heterogeneity, cfg.Policy, cfg.Algorithm, cfg.Heuristic, err)
		}
		fresh[i] = configDigest(cfg, res)
	}

	// Three faults spread over the campaign: each quarantines the worker's
	// simulator, so the chain runs on four distinct simulators in turn.
	faulted := map[int]bool{11: true, 37: true, 61: true}
	task := gridrealloc.ScenarioTask(cfgs)
	poisoning := func(ctx context.Context, i int, sim *core.Simulator) (*gridrealloc.Result, error) {
		if faulted[i] {
			sim.Poison()
			panic(fmt.Sprintf("injected fault at config %d", i))
		}
		return task(ctx, i, sim)
	}

	results := make([]*gridrealloc.Result, len(cfgs))
	taskErrs := make([]error, len(cfgs))
	stats, cerr := runner.StreamCtx(context.Background(), len(cfgs),
		runner.Options{Workers: 1}, poisoning,
		func(i int, res *gridrealloc.Result, err error) {
			results[i] = res
			taskErrs[i] = err
		})
	if cerr != nil {
		t.Fatalf("campaign cancelled: %v", cerr)
	}

	for i, cfg := range cfgs {
		if faulted[i] {
			var te *runner.TaskError
			if !errors.As(taskErrs[i], &te) || !errors.Is(te, runner.ErrTaskPanic) {
				t.Fatalf("config %d: injected panic not recovered into a TaskError: %v", i, taskErrs[i])
			}
			continue
		}
		if taskErrs[i] != nil {
			t.Fatalf("config %d failed alongside the injected faults: %v", i, taskErrs[i])
		}
		if d := configDigest(cfg, results[i]); d != fresh[i] {
			t.Fatalf("config %d (%s/%s/%s/%s/%s) diverged after a quarantine upstream:\n  fresh      %s\n  quarantine %s",
				i, cfg.Scenario, cfg.Heterogeneity, cfg.Policy, cfg.Algorithm, cfg.Heuristic, fresh[i], d)
		}
	}

	want := runner.RunStats{
		Tasks: int64(len(cfgs)), Completed: int64(len(cfgs) - 3), Failed: 3,
		RecoveredPanics: 3,
	}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
}

// TestPoisonPerturbsResults is the self-test of the proof above: Poison
// must actually make a simulator's results diverge, otherwise the
// quarantine digest test would pass vacuously even if quarantine broke.
func TestPoisonPerturbsResults(t *testing.T) {
	cfgs := abConfigs()[:1]
	clean, err := gridrealloc.RunScenario(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimulator()
	sim.Poison()
	poisonedRes, _, err := runner.RunCtx(context.Background(), 1, runner.Options{Workers: 1},
		func(ctx context.Context, i int, _ *core.Simulator) (*gridrealloc.Result, error) {
			return gridrealloc.ScenarioTask(cfgs)(ctx, i, sim)
		})
	if err != nil {
		t.Fatal(err)
	}
	if configDigest(cfgs[0], poisonedRes[0]) == configDigest(cfgs[0], clean) {
		t.Fatal("a poisoned simulator produced the clean digest; the quarantine proof is vacuous")
	}
}
