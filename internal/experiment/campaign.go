package experiment

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/core"
	"gridrealloc/internal/metrics"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/runner"
	"gridrealloc/internal/workload"
)

// CampaignConfig parameterises a campaign run.
type CampaignConfig struct {
	// Fraction scales the workload sizes; 1.0 reproduces the paper's trace
	// sizes, smaller values are used by the test-suite and the benchmarks.
	Fraction float64
	// Seed makes the synthetic traces reproducible.
	Seed uint64
	// Scenarios, Heterogeneities, Policies, Algorithms, Heuristics restrict
	// the campaign; empty slices select the paper's defaults.
	Scenarios       []workload.ScenarioName
	Heterogeneities []platform.Heterogeneity
	Policies        []batch.Policy
	Algorithms      []core.Algorithm
	Heuristics      []core.Heuristic
	// Parallelism bounds the number of simulations run concurrently; 0
	// means one worker per CPU.
	Parallelism int
	// Progress, when non-nil, receives one line per finished experiment.
	Progress io.Writer
	// ReallocPeriod and MinGain override the paper's defaults (3600 s and
	// 60 s) when positive; the ablation benchmarks use them.
	ReallocPeriod int64
	MinGain       int64
	// Mapping overrides the initial mapping policy name ("MCT" by default).
	Mapping string
	// Outage, when non-nil, applies one capacity window to every platform
	// of the campaign; severity sweeps run one campaign per severity value.
	// Scenario names with a "-maint"/"-outage" suffix get their default
	// window even when Outage is nil.
	Outage *OutageSpec
}

// OutageSpec describes the capacity window a campaign applies to its
// platforms, in façade-style plain values so it can be driven from flags.
type OutageSpec struct {
	// Cluster names the affected cluster ("" = the platform's first).
	Cluster string
	// Start and Duration place the window in trace time (seconds).
	Start, Duration int64
	// Severity is the fraction of cores lost in (0, 1]; non-positive
	// values mean a full outage.
	Severity float64
	// Announced selects a maintenance window instead of a surprise outage.
	Announced bool
	// Policy is "kill" (default) or "requeue" for displaced running jobs.
	Policy string
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Fraction <= 0 {
		c.Fraction = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = DefaultScenarios()
	}
	if len(c.Heterogeneities) == 0 {
		c.Heterogeneities = DefaultHeterogeneities()
	}
	if len(c.Policies) == 0 {
		c.Policies = DefaultPolicies()
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = DefaultAlgorithms()
	}
	if len(c.Heuristics) == 0 {
		c.Heuristics = core.Heuristics()
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.Mapping == "" {
		c.Mapping = "MCT"
	}
	return c
}

// Key identifies one non-baseline experiment inside a campaign.
type Key struct {
	Scenario  string
	Het       string
	Policy    string
	Algorithm string
	Heuristic string // plain heuristic name, without the "-C" postfix
}

// Campaign holds the outcome of a campaign: one metrics.Comparison per
// non-baseline experiment and one summary per baseline.
type Campaign struct {
	Config      CampaignConfig
	Comparisons map[Key]metrics.Comparison
	Baselines   map[Key]metrics.Summary
	Experiments int
}

// Run executes the campaign described by cfg. Baselines are computed once
// per (scenario, heterogeneity, policy) triple and shared by the twelve
// reallocation runs compared against them.
func Run(cfg CampaignConfig) (*Campaign, error) {
	camp, _, err := RunCtx(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return camp, nil
}

// RunCtx is Run under a context. Cancelling ctx stops new cells from
// starting; cells already running finish and their results are merged, so
// the returned Campaign holds every completed cell even on cancellation
// (RunStats say how many cells completed, failed or were skipped). The
// error is the lowest-index cell failure, or the cancellation when the
// campaign was cut short without one — in both cases alongside the partial
// Campaign, which a CLI can still summarise before exiting non-zero.
func RunCtx(ctx context.Context, cfg CampaignConfig) (*Campaign, runner.RunStats, error) {
	cfg = cfg.withDefaults()
	camp := &Campaign{
		Config:      cfg,
		Comparisons: make(map[Key]metrics.Comparison),
		Baselines:   make(map[Key]metrics.Summary),
	}

	// Pre-generate the traces once per scenario.
	traces := make(map[workload.ScenarioName]*workload.Trace, len(cfg.Scenarios))
	for _, sc := range cfg.Scenarios {
		t, err := workload.Scenario(sc, cfg.Fraction, cfg.Seed)
		if err != nil {
			return nil, runner.RunStats{}, fmt.Errorf("experiment: generating scenario %s: %w", sc, err)
		}
		traces[sc] = t
	}

	type cell struct {
		scenario workload.ScenarioName
		het      platform.Heterogeneity
		policy   batch.Policy
	}
	var cells []cell
	for _, sc := range cfg.Scenarios {
		for _, het := range cfg.Heterogeneities {
			for _, pol := range cfg.Policies {
				cells = append(cells, cell{sc, het, pol})
			}
		}
	}
	// Longest traces first: the runner hands cells out in index order, so a
	// long cell dispatched last would run alone at the end of the campaign.
	// Results are keyed by cell, so the order changes no table.
	sort.SliceStable(cells, func(i, j int) bool {
		return len(traces[cells[i].scenario].Jobs) > len(traces[cells[j].scenario].Jobs)
	})

	// The cells fan out over the campaign runner: every worker owns one
	// pooled simulator that all thirteen runs of each of its cells reuse,
	// and finished cells stream into the campaign maps as they complete.
	type cellOutcome struct {
		comparisons map[Key]metrics.Comparison
		baseline    metrics.Summary
		experiments int
	}
	var firstErr runner.FirstError
	stats, cerr := runner.StreamCtx(ctx, len(cells), runner.Options{Workers: cfg.Parallelism},
		func(_ context.Context, i int, sim *core.Simulator) (cellOutcome, error) {
			cl := cells[i]
			comparisons, baseline, n, err := runCell(sim, cfg, traces[cl.scenario], cl.scenario, cl.het, cl.policy)
			return cellOutcome{comparisons, baseline, n}, err
		},
		func(i int, out cellOutcome, err error) {
			if err != nil {
				firstErr.Observe(i, err)
				return
			}
			cl := cells[i]
			//gridlint:unordered-ok map-to-map merge of disjoint keys
			for k, v := range out.comparisons {
				camp.Comparisons[k] = v
			}
			baseKey := Key{Scenario: string(cl.scenario), Het: cl.het.String(), Policy: cl.policy.String(), Algorithm: core.NoReallocation.String(), Heuristic: "none"}
			camp.Baselines[baseKey] = out.baseline
			camp.Experiments += out.experiments
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "done %s/%s/%s (%d experiments)\n", cl.scenario, cl.het, cl.policy, out.experiments)
			}
		})
	// runCell errors are already "experiment:"-prefixed and self-locating.
	if err := firstErr.Err(); err != nil {
		return camp, stats, err
	}
	if cerr != nil {
		return camp, stats, fmt.Errorf("experiment: campaign cancelled after %d of %d cells: %w",
			stats.Completed, stats.Tasks, cerr)
	}
	return camp, stats, nil
}

// runCell runs the baseline plus every (algorithm, heuristic) variant for
// one (scenario, heterogeneity, policy) triple, all on the worker's pooled
// simulator.
func runCell(sim *core.Simulator, cfg CampaignConfig, trace *workload.Trace, sc workload.ScenarioName,
	het platform.Heterogeneity, policy batch.Policy) (map[Key]metrics.Comparison, metrics.Summary, int, error) {

	plat := platform.ForScenario(string(sc), het)
	plat, outagePolicy, err := applyCampaignCapacity(cfg, plat, trace, string(sc))
	if err != nil {
		return nil, metrics.Summary{}, 0, err
	}
	mapping, err := core.MappingByName(cfg.Mapping, cfg.Seed)
	if err != nil {
		return nil, metrics.Summary{}, 0, err
	}

	baselineCfg := core.Config{
		Platform:       plat,
		Policy:         policy,
		Trace:          trace,
		Mapping:        mapping,
		OutagePolicy:   outagePolicy,
		ClampOversized: true,
	}
	baseline, err := sim.Run(baselineCfg)
	if err != nil {
		return nil, metrics.Summary{}, 0, fmt.Errorf("experiment: baseline %s/%s/%s: %w", sc, het, policy, err)
	}
	count := 1
	comparisons := make(map[Key]metrics.Comparison)

	for _, alg := range cfg.Algorithms {
		if alg == core.NoReallocation {
			continue
		}
		for _, h := range cfg.Heuristics {
			runCfg := baselineCfg
			// Each run needs a fresh mapping policy instance so stateful
			// policies (RoundRobin, Random) do not leak state across runs.
			runCfg.Mapping, err = core.MappingByName(cfg.Mapping, cfg.Seed)
			if err != nil {
				return nil, metrics.Summary{}, 0, err
			}
			runCfg.Realloc = core.ReallocConfig{
				Algorithm: alg,
				Heuristic: h,
				Period:    cfg.ReallocPeriod,
				MinGain:   cfg.MinGain,
			}
			res, err := sim.Run(runCfg)
			if err != nil {
				return nil, metrics.Summary{}, 0, fmt.Errorf("experiment: %s/%s/%s/%s/%s: %w", sc, het, policy, alg, h.Name(), err)
			}
			count++
			cmp, err := metrics.Compare(baseline, res)
			if err != nil {
				return nil, metrics.Summary{}, 0, err
			}
			key := Key{
				Scenario:  string(sc),
				Het:       het.String(),
				Policy:    policy.String(),
				Algorithm: alg.String(),
				Heuristic: h.Name(),
			}
			comparisons[key] = cmp
		}
	}
	return comparisons, metrics.Summarize(baseline), count, nil
}

// applyCampaignCapacity resolves the campaign's OutageSpec and scenario
// variant through the shared platform.ApplyCapacityRequest (the same
// resolution the façade uses) and the displaced-job policy. Static
// campaigns pass through untouched.
func applyCampaignCapacity(cfg CampaignConfig, plat platform.Platform, trace *workload.Trace,
	scenario string) (platform.Platform, batch.OutagePolicy, error) {

	var req platform.CapacityRequest
	policyName := ""
	if cfg.Outage != nil {
		req = platform.CapacityRequest{
			Cluster:   cfg.Outage.Cluster,
			Start:     cfg.Outage.Start,
			Duration:  cfg.Outage.Duration,
			Severity:  cfg.Outage.Severity,
			Announced: cfg.Outage.Announced,
		}
		policyName = cfg.Outage.Policy
	}
	outagePolicy, err := batch.ParseOutagePolicy(policyName)
	if err != nil {
		return platform.Platform{}, 0, err
	}
	plat, err = platform.ApplyCapacityRequest(plat, scenario, trace.LastSubmit(), req)
	if err != nil {
		return platform.Platform{}, 0, fmt.Errorf("experiment: %w", err)
	}
	return plat, outagePolicy, nil
}

// Comparison returns the stored comparison for the given coordinates.
func (c *Campaign) Comparison(scenario workload.ScenarioName, het platform.Heterogeneity,
	policy batch.Policy, alg core.Algorithm, heuristic string) (metrics.Comparison, bool) {
	k := Key{
		Scenario:  string(scenario),
		Het:       het.String(),
		Policy:    policy.String(),
		Algorithm: alg.String(),
		Heuristic: heuristic,
	}
	cmp, ok := c.Comparisons[k]
	return cmp, ok
}

// SortedKeys returns the comparison keys in a deterministic order.
func (c *Campaign) SortedKeys() []Key {
	keys := make([]Key, 0, len(c.Comparisons))
	//gridlint:unordered-ok keys are collected then sorted
	for k := range c.Comparisons {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		if a.Het != b.Het {
			return a.Het < b.Het
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		return a.Heuristic < b.Heuristic
	})
	return keys
}
