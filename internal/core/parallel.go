package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The reallocation sweep fans its per-cluster work — taking an
// EstimateSnapshot and filling that cluster's ECT column over the pass's
// job shapes — over a bounded worker pool. Every cluster's batch scheduler is an
// independent object and every worker writes only to its own cluster's
// slots, so the merge is order-independent and the results are bit-identical
// to the sequential loop; only wall-clock time changes. Tiny sweeps skip the
// fan-out entirely: below the work threshold the goroutine handoff costs
// more than the queries it would parallelise.
var (
	// sweepWorkers bounds the worker pool; 1 disables parallelism.
	sweepWorkers = runtime.GOMAXPROCS(0)
	// sweepMinWork is the minimum work a sweep stage must hold before it
	// fans out: queued jobs for the gather, (shape, cluster) queries for the
	// column fill.
	sweepMinWork = 2048
)

// defaultSweepMinWork restores the tuned threshold after tests force the
// parallel path.
const defaultSweepMinWork = 2048

// SetSweepParallelism bounds the worker pool the reallocation sweep fans
// per-cluster evaluation over. workers <= 0 restores the default
// (GOMAXPROCS); 1 forces the sequential path. The parallel and sequential
// paths produce bit-identical results, so this is purely a performance knob
// (and the lever determinism tests use to compare the two).
func SetSweepParallelism(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sweepWorkers = workers
}

// SetSweepParallelThreshold sets the minimum work (queued jobs, or
// (shape, cluster) queries) a sweep stage must hold before it fans out;
// below it the sweep runs sequentially because the goroutine handoff would
// cost more than the queries. pairs <= 0 restores the default. Tests set it to 1 to force the
// parallel path onto small fixtures.
func SetSweepParallelThreshold(pairs int) {
	if pairs <= 0 {
		pairs = defaultSweepMinWork
	}
	sweepMinWork = pairs
}

// forEachCluster runs fn(idx) for every idx in [0, n) with the per-agent
// parallelism settings (falling back to the process-wide defaults), fanning
// the calls over the worker pool when the estimated work clears the
// threshold. fn must touch only per-idx state:
// each cluster's scheduler is owned by exactly one worker for the duration
// of the call, and results land in per-idx slots.
//
//gridlint:worker
func (a *Agent) forEachCluster(n, work int, fn func(idx int)) {
	workers, minWork := a.realloc.SweepWorkers, a.realloc.SweepThreshold
	if workers <= 0 {
		workers = sweepWorkers
	}
	if minWork <= 0 {
		minWork = sweepMinWork
	}
	forEachClusterWith(workers, minWork, n, work, fn)
}

// forEachClusterWith is forEachCluster with explicit parallelism settings;
// taking them as parameters (instead of reading the package globals inside)
// lets concurrent simulation runs — the fuzz harness fans whole scenarios
// over a worker pool — use different sweep parallelism without racing on
// shared state.
//
//gridlint:worker
func forEachClusterWith(workers, minWork, n, work int, fn func(idx int)) {
	if workers > n {
		workers = n
	}
	if workers < 2 || work < minWork {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
