package main

import (
	"fmt"
	"math/rand/v2"

	"gridrealloc/internal/scenario"
	"gridrealloc/internal/workload"
)

// The inputs of every workload are the paper's traces for traceSeed, the
// seed cmd/experiments uses by default. The workload seed perturbs them
// without changing their load shape: it reorders the campaign cells and
// the A/B grid, and moves each job's submission by at most jitterSeconds.
// Different seeds are different inputs of the same size, so run-to-run
// spread measures the program and not the chaotic size of a queue storm.
const (
	traceSeed     = 42
	jitterSeconds = 60
)

// rng returns the generator for the k-th input drawn from the workload
// seed.
func rng(seed uint64, k int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(k)))
}

// shuffle returns a permutation of xs drawn from r.
func shuffle[T any](r *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// jitter returns base with every submission moved by a uniform offset in
// [-jitterSeconds, +jitterSeconds], clamped at zero.
func jitter(base *workload.Trace, r *rand.Rand) (*workload.Trace, error) {
	jobs := append([]workload.Job(nil), base.Jobs...)
	for i := range jobs {
		jobs[i].Submit += r.Int64N(2*jitterSeconds+1) - jitterSeconds
		if jobs[i].Submit < 0 {
			jobs[i].Submit = 0
		}
	}
	t, err := workload.NewTrace(base.Name, jobs)
	if err != nil {
		return nil, fmt.Errorf("jitter %s: %w", base.Name, err)
	}
	return t, nil
}

// abGrid is the 72-configuration A/B grid of the repository's digest test
// (3 scenarios × 2 platform variants × 2 policies × baseline plus 5
// algorithm/heuristic pairs) at trace fraction 0.01, in an order drawn
// from r.
func abGrid(r *rand.Rand) []scenario.Config {
	pairs := [][2]string{
		{"none", ""}, {"realloc", "Mct"}, {"realloc", "MinMin"},
		{"realloc", "MaxGain"}, {"realloc-cancel", "Mct"}, {"realloc-cancel", "MinMin"},
	}
	var out []scenario.Config
	for _, sc := range []string{"jan", "apr", "pwa-g5k"} {
		for _, het := range []string{"homogeneous", "heterogeneous"} {
			for _, pol := range []string{"FCFS", "CBF"} {
				for _, p := range pairs {
					out = append(out, scenario.Config{
						Scenario: sc, Heterogeneity: het, Policy: pol,
						TraceFraction: 0.01, Seed: traceSeed,
						Algorithm: p[0], Heuristic: p[1],
					})
				}
			}
		}
	}
	return shuffle(r, out)
}
