// Custom-heuristic example: implement a user-defined reallocation heuristic
// against the core.Heuristic interface and plug it into the simulation
// driver directly (the typed API under internal/core gives full control when
// the string-based façade is not enough).
//
// The heuristic implemented here, "WidestFirst", reallocates the widest jobs
// first, on the theory that moving a wide job frees the most contiguous
// space on its origin cluster.
//
//	go run ./examples/customheuristic
package main

import (
	"fmt"
	"log"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/core"
	"gridrealloc/internal/metrics"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

// widestFirst scores a candidate by its processor count. The reallocation
// pass handles the highest score first and breaks ties by submission order
// and then job ID, so equally wide jobs keep their submission order.
type widestFirst struct{}

func (widestFirst) Name() string { return "WidestFirst" }

func (widestFirst) Score(v core.View) float64 { return float64(v.Procs) }

func main() {
	trace, err := workload.Scenario("apr", 0.05, 99)
	if err != nil {
		log.Fatal(err)
	}
	plat := platform.Grid5000(platform.Heterogeneous)
	fmt.Printf("April scenario slice (%d jobs) on %s\n\n", trace.Len(), plat)

	baselineCfg := core.Config{
		Platform:       plat,
		Policy:         batch.FCFS,
		Trace:          trace,
		ClampOversized: true,
	}
	baseline, err := core.Run(baselineCfg)
	if err != nil {
		log.Fatal(err)
	}

	run := func(h core.Heuristic) metrics.Comparison {
		cfg := baselineCfg
		cfg.Realloc = core.ReallocConfig{
			Algorithm: core.WithoutCancellation,
			Heuristic: h,
		}
		res, err := core.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		cmp, err := metrics.Compare(baseline, res)
		if err != nil {
			log.Fatal(err)
		}
		return cmp
	}

	fmt.Printf("%-14s %12s %10s %8s\n", "heuristic", "rel. resp.", "earlier %", "moves")
	for _, h := range []core.Heuristic{core.MCT(), core.MinMin(), widestFirst{}} {
		cmp := run(h)
		fmt.Printf("%-14s %12.3f %10.2f %8d\n", h.Name(), cmp.RelativeResponseTime, cmp.EarlierPercent, cmp.Reallocations)
	}
	fmt.Println("\nWidestFirst is the user-defined heuristic; the paper's heuristics are built in.")
}
