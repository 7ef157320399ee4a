// Command gridsim runs grid simulations: one workload scenario on one
// platform variant, with a chosen local batch policy and reallocation
// configuration, and prints the user- and system-centric metrics (plus the
// comparison against the no-reallocation baseline when requested).
//
// -scenario also accepts a comma-separated list; such a multi-scenario
// campaign fans out over the pooled campaign runner (-parallel workers, each
// reusing one simulator across its runs), streams per-scenario progress to
// stderr as runs finish, and prints the summaries in list order.
//
// -cpuprofile FILE writes a CPU profile of the whole invocation, for go tool
// pprof (cmd/experiments takes the same flag).
//
// Examples:
//
//	gridsim -scenario apr -fraction 0.05 -platform heterogeneous -batch CBF \
//	        -algorithm realloc-cancel -heuristic MinMin -compare
//
//	gridsim -scenario jan,feb,mar,apr -fraction 0.05 -parallel 4 \
//	        -algorithm realloc-cancel -heuristic MinMin -compare
//
//	gridsim -swf trace.swf -batch FCFS -algorithm realloc -heuristic Mct
//
//	gridsim -scenario jan-outage -outage-policy requeue \
//	        -algorithm realloc-cancel -heuristic MinMin -compare
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	gridrealloc "gridrealloc"
	"gridrealloc/internal/cli"
	"gridrealloc/internal/metrics"
	"gridrealloc/internal/runner"
	"gridrealloc/internal/workload"
)

func main() {
	// SIGINT or SIGTERM cancels the context instead of killing the process: an
	// interrupted multi-scenario campaign still prints the summaries of the
	// scenarios it completed before exiting non-zero. A second signal kills
	// immediately (signal.NotifyContext unregisters on the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridsim:", err)
		os.Exit(1)
	}
}

// run executes the tool without cancellation (the test-suite entry point).
func run(args []string, stdout io.Writer) error {
	return runCtx(context.Background(), args, stdout)
}

// runCtx executes the tool against the given writer; a failed write (full
// disk, closed pipe) surfaces as an error so main exits non-zero instead of
// reporting success over truncated output. Cancelling ctx interrupts a
// multi-scenario campaign after the in-flight scenarios finish.
func runCtx(ctx context.Context, args []string, stdout io.Writer) (err error) {
	out := cli.NewErrWriter(stdout)
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	var (
		scenario  = fs.String("scenario", "jan", "workload scenario (jan..jun, pwa-g5k, capacity variants such as jan-maint/jan-outage), or a comma-separated list for a multi-scenario campaign")
		parallel  = fs.Int("parallel", 0, "worker pool size for multi-scenario campaigns (0 = one per CPU)")
		fraction  = fs.Float64("fraction", 0.05, "fraction of the paper's trace size to generate")
		seed      = fs.Uint64("seed", 42, "random seed for the synthetic trace")
		swfPath   = fs.String("swf", "", "replay this SWF trace instead of generating one")
		variant   = fs.String("platform", "heterogeneous", "platform variant: homogeneous or heterogeneous")
		batchPol  = fs.String("batch", "CBF", "local batch policy: FCFS or CBF")
		algorithm = fs.String("algorithm", "none", "reallocation algorithm: none, realloc or realloc-cancel")
		heuristic = fs.String("heuristic", "Mct", "reallocation heuristic: Mct, MinMin, MaxMin, MaxGain, MaxRelGain, Sufferage")
		mapping   = fs.String("mapping", "MCT", "initial mapping policy: MCT, Random or RoundRobin")
		period    = fs.Int64("period", 3600, "reallocation period in seconds")
		minGain   = fs.Int64("min-gain", 60, "minimum completion-time improvement (s) for Algorithm 1")
		compare   = fs.Bool("compare", false, "also run the no-reallocation baseline and print the paper's metrics")
		jobsOut   = fs.Bool("jobs", false, "print the per-job records")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")

		outageCluster   = fs.String("outage-cluster", "", "cluster hit by the capacity window (default: the platform's first cluster)")
		outageStart     = fs.Int64("outage-start", 0, "start of the capacity window in trace seconds")
		outageDuration  = fs.Int64("outage-duration", 0, "length of the capacity window in seconds (0 disables the explicit window)")
		outageSeverity  = fs.Float64("outage-severity", 0, "fraction of cores lost during the window, in (0,1] (<=0 means a full outage)")
		outageAnnounced = fs.Bool("outage-announced", false, "treat the window as an announced maintenance window the scheduler plans around")
		outagePolicy    = fs.String("outage-policy", "kill", "what happens to running jobs displaced by an outage: kill or requeue")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := cli.StartCPUProfile(*cpuProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfile()) }()

	scenarios := splitScenarios(*scenario)
	if len(scenarios) == 1 {
		// Normalise a single-element list ("jan," or " jan ") so the
		// single-scenario path accepts the same syntax the campaign does.
		*scenario = scenarios[0]
	}
	if len(scenarios) > 1 {
		if *swfPath != "" {
			return fmt.Errorf("-swf replays one trace; it cannot be combined with a multi-scenario list")
		}
		base := gridrealloc.ScenarioConfig{
			Heterogeneity:        *variant,
			Policy:               *batchPol,
			TraceFraction:        *fraction,
			Seed:                 *seed,
			Algorithm:            *algorithm,
			Heuristic:            *heuristic,
			Mapping:              *mapping,
			ReallocPeriodSeconds: *period,
			MinGainSeconds:       *minGain,

			OutageCluster:         *outageCluster,
			OutageStartSeconds:    *outageStart,
			OutageDurationSeconds: *outageDuration,
			OutageSeverity:        *outageSeverity,
			OutageAnnounced:       *outageAnnounced,
			OutagePolicy:          *outagePolicy,
		}
		if err := runCampaign(ctx, out, scenarios, base, *parallel, *compare); err != nil {
			return err
		}
		return out.Err()
	}

	var trace *gridrealloc.Trace
	if *swfPath != "" {
		f, err := os.Open(*swfPath)
		if err != nil {
			return err
		}
		defer f.Close()
		trace, err = workload.ReadSWF(f, *swfPath)
		if err != nil {
			return err
		}
	} else {
		var err error
		trace, err = gridrealloc.GenerateScenario(*scenario, *fraction, *seed)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "trace %q: %d jobs\n", trace.Name, trace.Len())

	cfg := gridrealloc.ScenarioConfig{
		Scenario:             *scenario,
		Heterogeneity:        *variant,
		Policy:               *batchPol,
		Trace:                trace,
		Seed:                 *seed,
		Algorithm:            *algorithm,
		Heuristic:            *heuristic,
		Mapping:              *mapping,
		ReallocPeriodSeconds: *period,
		MinGainSeconds:       *minGain,

		OutageCluster:         *outageCluster,
		OutageStartSeconds:    *outageStart,
		OutageDurationSeconds: *outageDuration,
		OutageSeverity:        *outageSeverity,
		OutageAnnounced:       *outageAnnounced,
		OutagePolicy:          *outagePolicy,
	}
	result, err := gridrealloc.RunScenario(cfg)
	if err != nil {
		return err
	}
	printSummary(out, "run", gridrealloc.Summarize(result))
	if result.OutageKills > 0 || result.OutageRequeues > 0 {
		fmt.Fprintf(out, "  outage displacements: %d killed, %d requeued\n", result.OutageKills, result.OutageRequeues)
	}

	if *compare {
		baseCfg := cfg
		baseCfg.Algorithm = "none"
		baseline, err := gridrealloc.RunScenario(baseCfg)
		if err != nil {
			return err
		}
		printSummary(out, "baseline", gridrealloc.Summarize(baseline))
		cmp, err := gridrealloc.Compare(baseline, result)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\npaper metrics vs baseline:\n")
		fmt.Fprintf(out, "  jobs impacted:           %.2f%% (%d of %d)\n", cmp.ImpactedPercent, cmp.ImpactedJobs, cmp.TotalJobs)
		fmt.Fprintf(out, "  number of reallocations: %d\n", cmp.Reallocations)
		fmt.Fprintf(out, "  jobs finishing earlier:  %.2f%%\n", cmp.EarlierPercent)
		fmt.Fprintf(out, "  relative response time:  %.3f\n", cmp.RelativeResponseTime)
		if *jobsOut {
			fmt.Fprintf(out, "\nimpacted jobs (delta < 0 means earlier with reallocation):\n")
			for _, d := range metrics.Deltas(baseline, result) {
				fmt.Fprintf(out, "  job %-6d %+8d s  (%d reallocations)\n", d.JobID, d.Delta, d.Reallocations)
			}
		}
	} else if *jobsOut {
		fmt.Fprintf(out, "\nper-job records:\n")
		for _, rec := range result.SortedRecords() {
			fmt.Fprintf(out, "  job %-6d cluster=%-10s submit=%-8d start=%-8d completion=%-8d realloc=%d\n",
				rec.JobID, rec.Cluster, rec.Submit, rec.Start, rec.Completion, rec.Reallocations)
		}
	}
	return out.Err()
}

// splitScenarios parses the -scenario value as a comma-separated list,
// dropping empty elements.
func splitScenarios(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runCampaign executes the multi-scenario mode: one configuration per listed
// scenario (plus its no-reallocation baseline when compare is set), fanned
// over the pooled campaign runner. Progress streams to stderr in completion
// order; the summaries print to stdout in list order once all runs finished.
// When ctx is cancelled mid-campaign (SIGINT), the scenarios whose runs all
// completed are still summarised before the cancellation error is returned.
func runCampaign(ctx context.Context, out io.Writer, scenarios []string, base gridrealloc.ScenarioConfig, parallel int, compare bool) error {
	perScenario := 1
	if compare {
		perScenario = 2
	}
	cfgs := make([]gridrealloc.ScenarioConfig, 0, perScenario*len(scenarios))
	for _, sc := range scenarios {
		cfg := base
		cfg.Scenario = sc
		cfgs = append(cfgs, cfg)
		if compare {
			baseline := cfg
			baseline.Algorithm = "none"
			cfgs = append(cfgs, baseline)
		}
	}

	results := make([]*gridrealloc.Result, len(cfgs))
	var firstErr runner.FirstError
	stats, cerr := gridrealloc.RunScenariosStreamCtx(ctx, cfgs, parallel, func(i int, res *gridrealloc.Result, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "failed %s: %v\n", cfgs[i].Scenario, err)
			firstErr.Observe(i, err)
			return
		}
		results[i] = res
		kind := "run"
		if cfgs[i].Algorithm == "none" && compare {
			kind = "baseline"
		}
		fmt.Fprintf(os.Stderr, "done %s (%s: %d jobs, makespan %d s)\n", cfgs[i].Scenario, kind, len(res.Jobs), res.Makespan)
	})
	if err := firstErr.Err(); err != nil {
		return fmt.Errorf("scenario %s: %w", cfgs[firstErr.Index()].Scenario, err)
	}

	printed := 0
	for si, sc := range scenarios {
		res := results[si*perScenario]
		if res == nil {
			// Skipped (or still pending at cancellation): nothing to report.
			continue
		}
		if compare && results[si*perScenario+1] == nil {
			continue
		}
		printed++
		printSummary(out, sc, gridrealloc.Summarize(res))
		if res.OutageKills > 0 || res.OutageRequeues > 0 {
			fmt.Fprintf(out, "  outage displacements: %d killed, %d requeued\n", res.OutageKills, res.OutageRequeues)
		}
		if compare {
			baseline := results[si*perScenario+1]
			cmp, err := gridrealloc.Compare(baseline, res)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  vs baseline: impacted %.2f%%, reallocations %d, earlier %.2f%%, relative response %.3f\n",
				cmp.ImpactedPercent, cmp.Reallocations, cmp.EarlierPercent, cmp.RelativeResponseTime)
		}
	}
	if cerr != nil {
		if errors.Is(cerr, context.Canceled) {
			return fmt.Errorf("interrupted: %d of %d runs completed, %d scenario(s) summarised above, %d runs skipped",
				stats.Completed, stats.Tasks, printed, stats.Skipped)
		}
		return cerr
	}
	return nil
}

func printSummary(out io.Writer, label string, s gridrealloc.Summary) {
	fmt.Fprintf(out, "\n%s summary:\n", label)
	fmt.Fprintf(out, "  jobs completed:      %d / %d (%d killed at walltime)\n", s.Completed, s.Jobs, s.Killed)
	fmt.Fprintf(out, "  mean response time:  %.1f s (median %.1f s)\n", s.MeanResponseTime, s.MedianResponseTime)
	fmt.Fprintf(out, "  mean wait time:      %.1f s\n", s.MeanWaitTime)
	fmt.Fprintf(out, "  makespan:            %d s\n", s.Makespan)
	fmt.Fprintf(out, "  reallocations:       %d (over %d passes)\n", s.Reallocations, s.ReallocationEvents)
}
