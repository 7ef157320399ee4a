package main

import (
	"context"
	"fmt"
	"time"

	"gridrealloc/internal/core"
	"gridrealloc/internal/scenario"
	"gridrealloc/internal/workload"
)

const (
	stormFraction = 0.01
	// stormDigestRef is the digest of the storm run on the unjittered
	// seed-42 trace, the reference every build must reproduce.
	stormDigestRef = "07eaccc8722d097e94fe3d761e5722ed3ee47c85cc53d7a546626c51b2731a07"
	// freshChecks bounds the re-runs that check pooled against fresh
	// simulators, so verification stays short beside the timed window.
	freshChecks = 3
)

// stormConfig is the storm: pwa-g5k on the homogeneous platform, FCFS,
// Algorithm 2 (reallocation with cancellation) with the MaxMin heuristic.
func stormConfig(tr *workload.Trace) (core.Config, error) {
	return scenario.BuildRunConfig(scenario.Config{
		Scenario: string(workload.PWAG5K), Trace: tr, Heterogeneity: "homogeneous",
		Policy: "FCFS", Algorithm: "realloc-cancel", Heuristic: "MaxMin",
	})
}

// runStorm runs one core.Simulator.Run per unit on a pooled simulator,
// each on the seed-42 pwa-g5k trace jittered by the k-th draw of the seed.
// Every run must pass VerifyDigest. Afterwards the first freshChecks
// units are re-run on a fresh simulator and must reproduce the pooled
// digest, and the unjittered trace must reproduce stormDigestRef.
func runStorm(ctx context.Context, w window) (*report, error) {
	rep := newReport(w)
	var base *workload.Trace
	var tracegen []float64
	for range setupReps {
		t0 := time.Now()
		_, end := w.tr.start(0, "workload.Scenario")
		var err error
		base, err = workload.Scenario(workload.PWAG5K, stormFraction, traceSeed)
		end()
		if err != nil {
			return nil, err
		}
		tracegen = append(tracegen, time.Since(t0).Seconds())
		tr, err := jitter(base, rng(w.seed, 0))
		if err != nil {
			return nil, err
		}
		if _, err := stormConfig(tr); err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
	}
	rep.layer["workload.tracegen_s"] = median(tracegen)

	// Completed units by draw index; their traces are redrawn to verify.
	digests := map[int]string{}
	var sums core.Result
	var queries, hits, rebuilds, reuses, cancels float64
	sim := core.NewSimulator()
	deadline := time.Now().Add(w.budget)
	if err := rep.begin(); err != nil {
		return nil, err
	}
	for k := 0; k < minUnits || time.Now().Before(deadline); k++ {
		tr, err := jitter(base, rng(w.seed, k))
		if err != nil {
			return nil, err
		}
		root, endRoot := w.tr.start(0, "storm")
		_, end := w.tr.start(root, "scenario.BuildRunConfig")
		cfg, err := stormConfig(tr)
		end()
		if err != nil {
			return nil, err
		}
		_, end = w.tr.start(root, "Simulator.Run")
		t0 := time.Now()
		res, err := sim.Run(cfg)
		d := time.Since(t0).Seconds()
		end()
		endRoot()
		rep.task = append(rep.task, d)
		if err != nil {
			rep.printf("storm %d failed: %v", k, err)
			rep.tally.error()
			continue
		}
		rep.tally.ok()
		if err := res.VerifyDigest(); err != nil {
			rep.printf("storm %d: %v", k, err)
			rep.tally.mismatch()
		}
		digests[k] = res.Digest()
		rep.ops += float64(res.TotalReallocations)
		rep.opsWall += d
		sums.TotalReallocations += res.TotalReallocations
		sums.ReallocationEvents += res.ReallocationEvents
		sums.EventsExecuted += res.EventsExecuted
		for _, l := range res.ServerLoads {
			queries += float64(l.ECTQueries)
			hits += float64(l.SnapshotHits)
			rebuilds += float64(l.PlanRebuilds)
			reuses += float64(l.PlanReuses)
			cancels += float64(l.Cancellations)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	rep.end()

	// Verification, outside the timed window.
	check := func(tr *workload.Trace, want string) (string, bool) {
		cfg, err := stormConfig(tr)
		if err != nil {
			return err.Error(), false
		}
		res, err := core.NewSimulator().Run(cfg)
		if err != nil {
			return err.Error(), false
		}
		if err := res.VerifyDigest(); err != nil {
			return err.Error(), false
		}
		return res.Digest(), res.Digest() == want
	}
	for k := range min(len(rep.task), freshChecks) {
		want, ok := digests[k]
		if !ok {
			continue
		}
		tr, err := jitter(base, rng(w.seed, k))
		if err != nil {
			return nil, err
		}
		if got, ok := check(tr, want); !ok {
			rep.printf("storm %d: fresh digest %s, pooled %s", k, got, want)
			rep.tally.mismatch()
		}
	}
	got, ok := check(base, stormDigestRef)
	if !ok {
		rep.printf("storm reference: digest %s, want %s", got, stormDigestRef)
	}
	rep.tally.check(ok)

	n := float64(len(digests))
	if n == 0 {
		return nil, fmt.Errorf("realloc-storm: no storm completed")
	}
	rep.layer["sim.events"] = float64(sums.EventsExecuted) / n
	rep.layer["core.moves"] = float64(sums.TotalReallocations) / n
	rep.layer["core.passes"] = float64(sums.ReallocationEvents) / n
	rep.layer["core.ect_queries_per_move"] = ratio(queries, float64(sums.TotalReallocations))
	rep.layer["batch.ect_queries"] = queries / n
	rep.layer["batch.snapshot_hit_ratio"] = ratio(hits, queries)
	rep.layer["batch.plan_rebuilds"] = rebuilds / n
	rep.layer["batch.plan_reuse_ratio"] = ratio(reuses, rebuilds+reuses)
	rep.layer["batch.cancellations"] = cancels / n
	rep.printf("shape: storms=%d jobs=%d moves/storm=%.0f passes/storm=%.1f events/storm=%.0f ect_queries/storm=%.0f fraction=%.2f jitter=±%ds",
		len(digests), len(base.Jobs), rep.layer["core.moves"], rep.layer["core.passes"], rep.layer["sim.events"],
		rep.layer["batch.ect_queries"], stormFraction, jitterSeconds)
	rep.printf("storm_s = %.4f s (median of %d Simulator.Run)", median(rep.task), len(rep.task))
	return rep, nil
}
