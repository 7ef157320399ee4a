// Command gridbench is the repository's end-to-end benchmark. It drives the
// simulator's public layers from outside — experiment campaigns, single
// reallocation storms and a gridd daemon with two tenants — checks every
// output against a reference, and prints one JSON result line:
//
//	bash _gridbench/run.sh --workload paper-campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the workload runs twice in one process, untraced and then traced (spans
// around every call the benchmark makes plus a CPU profile of the
// process), and the result carries the per-layer metrics and the tracing
// overhead. Workloads, metrics and units are listed in BENCHMARK.json at
// the repository root.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// processBudget bounds the whole process: a single simulation cannot be
// interrupted, so the benchmark checks its deadline between units of work
// and exits if a unit overruns.
const processBudget = 170 * time.Second

const (
	// setupReps is how often each workload sets up; setup_s is the median.
	setupReps = 5
	// minUnits is the least number of units a timed window runs.
	minUnits = 3
)

// window is one measured pass of a workload.
type window struct {
	seed   uint64
	budget time.Duration
	tr     *tracer // nil when untraced
}

// report is what one pass measured.
type report struct {
	setup   []float64 // seconds per set-up repetition
	task    []float64 // seconds per unit of work
	ops     float64   // elementary operations completed in the timed window
	opsWall float64   // seconds those operations took
	tally   tally
	layer   map[string]float64
	lines   []string // human-readable findings, printed before the result

	// Filled by begin/end around the timed window; a traced pass also
	// profiles the process's CPU over that window.
	traced bool
	prof   bytes.Buffer
	rt0    runtimeStats
	rt     runtimeStats
}

func newReport(w window) *report { return &report{layer: map[string]float64{}, traced: w.tr != nil} }

func (r *report) begin() error {
	if r.traced {
		if err := pprof.StartCPUProfile(&r.prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	r.rt0 = readRuntime()
	return nil
}

func (r *report) end() {
	r.rt = readRuntime().since(r.rt0)
	if r.traced {
		pprof.StopCPUProfile()
	}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

type workloadDef struct {
	name string
	run  func(ctx context.Context, w window) (*report, error)
}

var workloads = []workloadDef{
	{"paper-campaign", runPaperCampaign},
	{"realloc-storm", runStorm},
	{"gridd-mixed", runGriddMixed},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"task_s", "s"},
	{"ops_per_s", "1/s"},
}

// layers are the per-layer metrics. A layer a workload does not exercise
// reads 0.
var layers = []metricDef{
	{"workload.tracegen_s", "s"},
	{"sim.events", "count"},
	{"sim.cpu_share", "ratio"},
	{"batch.ect_queries", "count"},
	{"batch.snapshot_hit_ratio", "ratio"},
	{"batch.plan_rebuilds", "count"},
	{"batch.plan_reuse_ratio", "ratio"},
	{"batch.cancellations", "count"},
	{"batch.cpu_share", "ratio"},
	{"batch.frontal_op_us", "us"},
	{"core.moves", "count"},
	{"core.passes", "count"},
	{"core.ect_queries_per_move", "ratio"},
	{"core.cpu_share", "ratio"},
	{"runner.cpu_util", "ratio"},
	{"runner.tail_s", "s"},
	{"runner.failed", "count"},
	{"runner.retries", "count"},
	{"runner.cpu_share", "ratio"},
	{"service.rtt_overhead_us", "us"},
	{"service.cpu_share", "ratio"},
	{"service.first_line_s", "s"},
	{"service.shed", "count"},
	{"service.leases_discarded", "count"},
	{"experiment.tables_s", "s"},
	{"experiment.cpu_share", "ratio"},
	{"workload.cpu_share", "ratio"},
	{"other.cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"gc.cpu_share", "ratio"},
	{"bench.cpu_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.allocs", "count"},
	{"runtime.alloc_mb", "MB"},
	{"loadgen.cpu_share", "ratio"},
	{"frontal_p50_ms", "ms"},
	{"frontal_p99_ms", "ms"},
	{"frontal_samples", "count"},
	{"failed_frac", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.profile_samples", "count"},
}

// namedLayers are the profile classes reported under their own name; any
// other gridrealloc package counts as "other".
var namedLayers = map[string]bool{
	"sim": true, "batch": true, "core": true, "runner": true, "service": true,
	"experiment": true, "workload": true, "runtime": true, "gc": true,
	"bench": true, "loadgen": true,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-campaign, realloc-storm or gridd-mixed")
	seed := fs.Uint64("seed", 42, "workload seed")
	seconds := fs.Int("seconds", 10, "seconds of measurement")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the span files of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "gridbench: need --workload (paper-campaign|realloc-storm|gridd-mixed), --seconds > 0, --trace 0|1\n")
		return 2
	}
	// More Ps than CPUs only adds scheduler churn on a small shared box.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	watchdog := time.AfterFunc(processBudget, func() {
		fmt.Fprintf(os.Stderr, "gridbench: over the %v process budget, giving up\n", processBudget)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Printf("gridbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		def.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	ctx := context.Background()
	budget := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 0 {
		res, err = untraced(ctx, def, *seed, budget)
	} else {
		res, err = traced(ctx, def, *seed, budget, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "gridbench: %d of %d operations failed their check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func untraced(ctx context.Context, def *workloadDef, seed uint64, budget time.Duration) (result, error) {
	rep, err := def.run(ctx, window{seed: seed, budget: budget})
	if err != nil {
		return result{}, err
	}
	printReport(rep)
	values := map[string]float64{
		"setup_s":     median(rep.setup),
		"mem_peak_mb": peakRSSMB(),
		"task_s":      median(rep.task),
		"ops_per_s":   ratio(rep.ops, rep.opsWall),
	}
	m := make(map[string]metricValue, len(endToEnd))
	for _, e := range endToEnd {
		m[e.name] = metricValue{values[e.name], e.unit}
		fmt.Printf("%s = %.6g %s\n", e.name, values[e.name], e.unit)
	}
	fmt.Printf("  (setup_s: median of %d set-ups; task_s: median of %d units; ops_per_s: %.0f ops in %.3f s)\n",
		len(rep.setup), len(rep.task), rep.ops, rep.opsWall)
	fmt.Printf("failed_frac = %.4f ratio (%d of %d; %d refused, %d wrong)\n",
		rep.tally.frac(), rep.tally.failed, rep.tally.attempted, rep.tally.refused, rep.tally.wrong)
	return result{Correct: rep.tally.failed == 0, Attempted: rep.tally.attempted, Failed: rep.tally.failed, Metrics: m}, nil
}

// traced runs the workload untraced for half the budget and traced for the
// other half, and reports the traced pass's per-layer metrics together
// with the overhead the tracing added to the unit time.
func traced(ctx context.Context, def *workloadDef, seed uint64, budget time.Duration, outDir string) (result, error) {
	half := budget / 2
	base, err := def.run(ctx, window{seed: seed, budget: half})
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	rep, err := def.run(ctx, window{seed: seed, budget: half, tr: tr})
	if err != nil {
		return result{}, err
	}
	fmt.Println("-- untraced pass")
	printReport(base)
	fmt.Println("-- traced pass")
	printReport(rep)
	tally := base.tally
	tally.add(rep.tally)
	shares, samples, err := profileShares(rep.prof.Bytes())
	if err != nil {
		return result{}, err
	}
	for class, share := range shares {
		key := class
		if !namedLayers[class] {
			key = "other"
		}
		rep.layer[key+".cpu_share"] += share
	}
	rep.layer["trace.profile_samples"] = float64(samples)
	rep.layer["runtime.gc_cpu_share"] = ratio(rep.rt.gcCPU, rep.rt.totalCPU)
	rep.layer["runtime.allocs"] = rep.rt.allocObjects
	rep.layer["runtime.alloc_mb"] = rep.rt.allocBytes / (1 << 20)
	rep.layer["failed_frac"] = tally.frac()
	over := median(rep.task) - median(base.task)
	rep.layer["trace.overhead_s"] = over
	rep.layer["trace.overhead_ratio"] = ratio(over, median(base.task))

	spansPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", def.name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	if err := tr.write(spansPath); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spansPath)
	for _, st := range summarize(tr.spans) {
		fmt.Printf("  span %-26s n=%-7d total=%9.4fs self=%9.4fs\n", st.Name, st.Count, st.Total.Seconds(), st.Self.Seconds())
	}
	classes := make([]string, 0, len(shares))
	for c := range shares {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return shares[classes[i]] > shares[classes[j]] })
	var b strings.Builder
	for _, c := range classes {
		fmt.Fprintf(&b, " %s=%.3f", c, shares[c])
	}
	fmt.Printf("cpu profile (%d samples):%s\n", samples, b.String())
	fmt.Printf("tracing overhead: %+.4f s per unit (traced %.4f s, untraced %.4f s)\n",
		over, median(rep.task), median(base.task))

	m := make(map[string]metricValue, len(layers))
	for _, l := range layers {
		m[l.name] = metricValue{rep.layer[l.name], l.unit}
		fmt.Printf("%s = %.6g %s\n", l.name, rep.layer[l.name], l.unit)
	}
	return result{Correct: tally.failed == 0, Attempted: tally.attempted, Failed: tally.failed, Metrics: m}, nil
}

func printReport(rep *report) {
	for _, l := range rep.lines {
		fmt.Println(l)
	}
}
