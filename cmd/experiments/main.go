// Command experiments runs the simulation campaign of the paper's evaluation
// section and prints Tables 2 through 17 in the paper's layout, plus the
// Section 4.3 comparison of the two reallocation algorithms. The campaign
// can be scaled down with -fraction for a quick run; -fraction 1.0
// reproduces the paper's trace sizes (the full 364-simulation campaign takes
// on the order of an hour on a laptop).
//
// Examples:
//
//	experiments -fraction 0.02                 # quick pass over all tables
//	experiments -fraction 1.0 -csv out.csv     # full-scale campaign
//	experiments -table 8 -fraction 0.05        # a single table
//	experiments -compare -fraction 0.05        # Section 4.3 comparison only
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

	"gridrealloc/internal/cli"
	"gridrealloc/internal/core"
	"gridrealloc/internal/experiment"
	"gridrealloc/internal/workload"
)

func main() {
	// SIGINT or SIGTERM cancels the campaign context: cells already simulating
	// finish, the partial progress is reported to stderr, and the process exits
	// non-zero instead of discarding an hour of completed simulations
	// silently.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the campaign without cancellation (the test-suite entry
// point).
func run(args []string, stdout io.Writer) error {
	return runCtx(context.Background(), args, stdout)
}

// runCtx executes the campaign against the given writer; a failed write
// (full disk, closed pipe) surfaces as an error so main exits non-zero
// instead of reporting a campaign nobody saw. Progress keeps going to
// stderr.
func runCtx(ctx context.Context, args []string, stdout io.Writer) (err error) {
	w := cli.NewErrWriter(stdout)
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fraction  = fs.Float64("fraction", 0.02, "fraction of the paper's trace sizes (1.0 = full scale)")
		seed      = fs.Uint64("seed", 42, "random seed for the synthetic traces")
		tableID   = fs.Int("table", 0, "print only this table (2..17); 0 prints all")
		compare   = fs.Bool("compare", false, "print the Section 4.3 algorithm comparison")
		table1    = fs.Bool("table1", false, "also print the Table 1 reproduction")
		csvPath   = fs.String("csv", "", "write all tables as CSV to this file")
		scenarios = fs.String("scenarios", "", "comma-separated subset of scenarios (default: all seven)")
		parallel  = fs.Int("parallel", 0, "number of concurrent simulations (0 = one per CPU)")
		quiet     = fs.Bool("quiet", false, "suppress progress output")
		period    = fs.Int64("period", 0, "override the reallocation period in seconds (0 = paper default 3600)")
		minGain   = fs.Int64("min-gain", 0, "override the Algorithm 1 improvement threshold in seconds (0 = paper default 60)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")

		outageCluster   = fs.String("outage-cluster", "", "cluster hit by the campaign's capacity window (default: each platform's first cluster)")
		outageStart     = fs.Int64("outage-start", 0, "start of the capacity window in trace seconds")
		outageDuration  = fs.Int64("outage-duration", 0, "length of the capacity window in seconds (0 = only scenario-variant defaults apply)")
		outageSeverity  = fs.Float64("outage-severity", 0, "fraction of cores lost during the window, in (0,1]; sweep severities by running one campaign per value")
		outageAnnounced = fs.Bool("outage-announced", false, "treat the window as announced maintenance instead of a surprise outage")
		outagePolicy    = fs.String("outage-policy", "", "displaced running jobs are killed (default) or requeued: kill or requeue")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := cli.StartCPUProfile(*cpuProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfile()) }()

	cfg := experiment.CampaignConfig{
		Fraction:      *fraction,
		Seed:          *seed,
		Parallelism:   *parallel,
		ReallocPeriod: *period,
		MinGain:       *minGain,
	}
	if *outageDuration > 0 || *outageSeverity > 0 || *outageStart > 0 || *outageAnnounced || *outagePolicy != "" || *outageCluster != "" {
		cfg.Outage = &experiment.OutageSpec{
			Cluster:   *outageCluster,
			Start:     *outageStart,
			Duration:  *outageDuration,
			Severity:  *outageSeverity,
			Announced: *outageAnnounced,
			Policy:    *outagePolicy,
		}
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *scenarios != "" {
		for _, s := range strings.Split(*scenarios, ",") {
			cfg.Scenarios = append(cfg.Scenarios, workload.ScenarioName(strings.TrimSpace(s)))
		}
	}

	if *table1 {
		text, err := experiment.Table1(*fraction, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, text)
	}

	fmt.Fprintf(os.Stderr, "running campaign (fraction=%.3f, %d scenario(s))...\n", *fraction, len(cfg.Scenarios))
	camp, stats, err := experiment.RunCtx(ctx, cfg)
	if err != nil {
		// Surface what the interrupted (or failed) campaign did complete:
		// the experiments of every finished cell are in camp, and the stats
		// say how many cells never ran.
		if camp != nil {
			fmt.Fprintf(os.Stderr, "campaign aborted: %d experiments from %d of %d cells completed (%d cells skipped)\n",
				camp.Experiments, stats.Completed, stats.Tasks, stats.Skipped)
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign done: %d experiments\n", camp.Experiments)

	ids := make([]int, 0, 16)
	if *tableID != 0 {
		ids = append(ids, *tableID)
	} else {
		for _, spec := range experiment.Tables() {
			ids = append(ids, spec.ID)
		}
	}

	var csv strings.Builder
	for _, id := range ids {
		table, err := camp.BuildTable(id)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, table.Format())
		csv.WriteString(table.CSV())
	}

	if *compare || *tableID == 0 {
		fmt.Fprintln(w, experiment.FormatComparison(camp.CompareAlgorithms()))
	}

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}

	// Closing note: remind how the heuristic names map to the paper.
	fmt.Fprintf(w, "heuristics: %s (\"-C\" marks the cancellation algorithm, Algorithm 2)\n",
		strings.Join(heuristicNames(), ", "))
	return w.Err()
}

func heuristicNames() []string {
	names := make([]string, 0, 6)
	for _, h := range core.Heuristics() {
		names = append(names, h.Name())
	}
	return names
}
