package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"gridrealloc/internal/experiment"
	"gridrealloc/internal/workload"
)

const (
	campaignFraction = 0.01
	campaignWorkers  = 2
	// campaignTablesRef is the SHA-256 of the CSVs of tables 2–17, in
	// table order and the paper's layout, of the paper campaign at
	// fraction 0.01 on the seed-42 traces.
	campaignTablesRef = "559a1c7e07e248c049044073ee4e684f683640374f2df4b1f5f144982100c22d"
)

// progressClock timestamps every Progress line of a campaign (one per
// finished cell), measured from the campaign's start.
type progressClock struct {
	mu     sync.Mutex
	t0     time.Time
	done   []time.Duration
	tr     *tracer
	parent int64
}

func (p *progressClock) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for range bytes.Count(b, []byte("\n")) {
		p.done = append(p.done, time.Since(p.t0))
		p.tr.mark(p.parent, "Progress")
	}
	return len(b), nil
}

// cellOrder draws the order of the six month scenarios from r and keeps
// pwa-g5k last, where cmd/experiments runs it: its cells hold the longest
// runs, so they set the campaign's tail.
func cellOrder(r *rand.Rand, scenarios []workload.ScenarioName) []workload.ScenarioName {
	last := len(scenarios) - 1
	return append(shuffle(r, scenarios[:last]), scenarios[last])
}

// runPaperCampaign is the cmd/experiments path: experiment.RunCtx over the
// paper's full grid (7 scenarios × 2 platform variants × FCFS/CBF × 13
// runs = 364 runs in 28 cells) with 2 workers, then BuildTable for tables
// 2–17. Each unit draws its cell order from the seed (see cellOrder); the
// tables must hash to campaignTablesRef, which is also the SHA-256 of the
// file `experiments -fraction 0.01 -csv` writes.
func runPaperCampaign(ctx context.Context, w window) (*report, error) {
	rep := newReport(w)
	scenarios := experiment.DefaultScenarios()
	// Set-up is generating the seven traces, which RunCtx does again
	// inside every timed unit.
	for range setupReps {
		t0 := time.Now()
		for _, sc := range scenarios {
			_, end := w.tr.start(0, "workload.Scenario")
			_, err := workload.Scenario(sc, campaignFraction, traceSeed)
			end()
			if err != nil {
				return nil, err
			}
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
	}
	rep.layer["workload.tracegen_s"] = median(rep.setup)

	var utils, tails, tables []float64
	var moves, experiments float64
	deadline := time.Now().Add(w.budget)
	if err := rep.begin(); err != nil {
		return nil, err
	}
	for k := 0; k < minUnits || time.Now().Before(deadline); k++ {
		cfg := experiment.CampaignConfig{
			Fraction:    campaignFraction,
			Seed:        traceSeed,
			Scenarios:   cellOrder(rng(w.seed, k), scenarios),
			Parallelism: campaignWorkers,
		}
		root, endRoot := w.tr.start(0, "campaign")
		prog := &progressClock{tr: w.tr}
		cfg.Progress = prog
		cpu0 := cpuTime()
		t0 := time.Now()
		prog.t0 = t0
		id, end := w.tr.start(root, "experiment.RunCtx")
		prog.parent = id
		camp, stats, err := experiment.RunCtx(ctx, cfg)
		end()
		t1 := time.Now()
		cpu := cpuTime() - cpu0
		// Tables lay out scenarios and policies in the campaign's order;
		// build them in the paper's order so every cell order yields the
		// same tables.
		if camp != nil {
			camp.Config.Scenarios = scenarios
			camp.Config.Policies = experiment.DefaultPolicies()
		}
		var csv strings.Builder
		for _, spec := range experiment.Tables() {
			if err != nil {
				break
			}
			_, end := w.tr.start(root, "BuildTable")
			var tb experiment.Table
			tb, err = camp.BuildTable(spec.ID)
			end()
			csv.WriteString(tb.CSV())
		}
		t2 := time.Now()
		endRoot()

		rep.task = append(rep.task, t2.Sub(t0).Seconds())
		if err != nil {
			rep.printf("campaign %d failed: %v", k, err)
			rep.tally.error()
			continue
		}
		sum := sha256.Sum256([]byte(csv.String()))
		hash := hex.EncodeToString(sum[:])
		if hash != campaignTablesRef {
			rep.printf("campaign %d: tables hash %s, want %s", k, hash, campaignTablesRef)
		}
		rep.tally.check(hash == campaignTablesRef && stats.Failed == 0 && stats.Skipped == 0)
		rep.ops += float64(camp.Experiments)
		rep.opsWall += t2.Sub(t0).Seconds()
		experiments += float64(camp.Experiments)
		utils = append(utils, cpuUtil(cpu, t1.Sub(t0), campaignWorkers))
		tails = append(tails, tailSeconds(prog.done, campaignWorkers))
		tables = append(tables, t2.Sub(t1).Seconds())
		for _, c := range camp.Comparisons {
			moves += float64(c.Reallocations)
		}
		rep.layer["runner.failed"] += float64(stats.Failed)
		rep.layer["runner.retries"] += float64(stats.Retries)
	}
	rep.end()
	units := float64(len(rep.task))
	rep.layer["core.moves"] = moves / units
	rep.layer["runner.cpu_util"] = median(utils)
	rep.layer["runner.tail_s"] = median(tails)
	rep.layer["experiment.tables_s"] = median(tables)
	rep.printf("shape: campaigns=%d runs/campaign=%.0f cells/campaign=28 moves/campaign=%.0f workers=%d fraction=%.2f",
		len(rep.task), experiments/units, moves/units, campaignWorkers, campaignFraction)
	rep.printf("campaign_s = %.4f s (median of %d; RunCtx + BuildTable)", median(rep.task), len(rep.task))
	rep.printf("runner.cpu_util = %.3f, runner.tail_s = %.4f s, experiment.tables_s = %.6f s (medians)",
		median(utils), median(tails), median(tables))
	if len(rep.task) == 0 {
		return nil, fmt.Errorf("paper-campaign: no campaign ran")
	}
	return rep, nil
}
