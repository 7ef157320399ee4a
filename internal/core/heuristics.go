// Package core implements the paper's primary contribution: the
// meta-scheduling agent that maps incoming jobs onto clusters and the two
// task-reallocation algorithms (with and without cancellation of the waiting
// queues) together with the six (re)scheduling heuristics used to order the
// jobs during a reallocation pass. It also contains the simulation driver
// that replays a trace on a platform and records per-job completion times.
package core

import (
	"fmt"
	"math"

	"gridrealloc/internal/workload"
)

// candidate is a waiting job considered for reallocation.
type candidate struct {
	// Job is the job itself (reference-speed runtime and walltime).
	Job workload.Job
	// OriginECT is the job's planned completion time on the cluster queueing
	// it when the pass gathered it.
	OriginECT int64
	// Reallocations is the number of times the job has already been moved.
	Reallocations int
	origin        int // platform index of the cluster the pass found it on
}

// Estimate carries the completion-time estimates of a candidate over the
// platform. All times are absolute virtual times.
type Estimate struct {
	// BestECT is the smallest estimated completion time across all clusters
	// (including the origin cluster's own estimate).
	BestECT int64
	// BestCluster is the platform index of the cluster achieving BestECT,
	// or -1 when no cluster can run the job.
	BestCluster int
	// SecondECT is the second smallest estimated completion time, or
	// NoEstimate when fewer than two clusters can run the job.
	SecondECT int64
	// BestOtherECT is the smallest estimated completion time on a cluster
	// different from the origin cluster, or NoEstimate when no other cluster
	// can run the job.
	BestOtherECT int64
	// BestOtherCluster is the platform index of the cluster achieving
	// BestOtherECT, or -1 when no other cluster can run the job.
	BestOtherCluster int
}

// NoEstimate marks an absent completion-time estimate (for example the
// second-best ECT on a platform where only one cluster is large enough for
// the job).
const NoEstimate int64 = math.MaxInt64

// Sufferage returns the difference between the two best estimated completion
// times, the quantity the Sufferage heuristic maximises. It returns 0 when
// only one cluster can run the job (the job does not suffer from losing a
// choice it does not have).
func (e Estimate) Sufferage() int64 {
	if e.SecondECT == NoEstimate || e.BestECT == NoEstimate {
		return 0
	}
	return e.SecondECT - e.BestECT
}

// View is what a heuristic sees of a candidate: its shape, its completion
// time on its origin cluster and its estimates over the platform.
type View struct {
	// The job's processor count and reference walltime.
	Procs    int
	Walltime int64
	// OriginECT is the job's estimated completion time on its origin
	// cluster: its planned completion while queued there or, under the
	// cancellation algorithm, that of resubmitting it there.
	OriginECT int64
	Estimate
}

// Gain returns the time the candidate would gain by moving to the best other
// cluster (OriginECT − BestOtherECT). A negative value means the move would
// delay the job. It returns (-NoEstimate) when no other cluster can run the
// job, so gain-ordered heuristics push such jobs last.
func (v View) Gain() int64 {
	if v.BestOtherECT == NoEstimate {
		return -NoEstimate
	}
	return v.OriginECT - v.BestOtherECT
}

// Heuristic orders the candidates of a reallocation pass. The pass handles
// the candidate with the highest score first and breaks ties by earliest
// submission time, then smallest job ID, so a heuristic is fully described
// by the score it gives each View.
type Heuristic interface {
	// Name returns the identifier used in the paper's tables ("Mct",
	// "MinMin", ...).
	Name() string
	// Score rates a candidate; the highest score is handled next.
	Score(v View) float64
}

// The six heuristics of Section 2.2.2.
type (
	mctHeuristic        struct{}
	minMinHeuristic     struct{}
	maxMinHeuristic     struct{}
	maxGainHeuristic    struct{}
	maxRelGainHeuristic struct{}
	sufferageHeuristic  struct{}
)

// MCT returns the online heuristic that handles jobs in their submission
// order.
func MCT() Heuristic { return mctHeuristic{} }

// MinMin returns the heuristic that selects the job with the smallest best
// estimated completion time (gives priority to small jobs).
func MinMin() Heuristic { return minMinHeuristic{} }

// MaxMin returns the heuristic that selects the job with the largest best
// estimated completion time (gives priority to large jobs).
func MaxMin() Heuristic { return maxMinHeuristic{} }

// MaxGain returns the heuristic that selects the job with the largest
// absolute gain from moving to another cluster.
func MaxGain() Heuristic { return maxGainHeuristic{} }

// MaxRelGain returns the heuristic that selects the job with the largest
// gain divided by its processor count, preferring small tasks unless a large
// task has a very large gain.
func MaxRelGain() Heuristic { return maxRelGainHeuristic{} }

// Sufferage returns the heuristic that selects the job that would suffer the
// most from not being given its best cluster (largest difference between its
// two best estimated completion times).
func Sufferage() Heuristic { return sufferageHeuristic{} }

func (mctHeuristic) Name() string        { return "Mct" }
func (minMinHeuristic) Name() string     { return "MinMin" }
func (maxMinHeuristic) Name() string     { return "MaxMin" }
func (maxGainHeuristic) Name() string    { return "MaxGain" }
func (maxRelGainHeuristic) Name() string { return "MaxRelGain" }
func (sufferageHeuristic) Name() string  { return "Sufferage" }

// MCT scores every candidate alike, so the tie-break alone orders them.
func (mctHeuristic) Score(View) float64 { return 0 }

func (minMinHeuristic) Score(v View) float64 { return -float64(v.BestECT) }

func (maxMinHeuristic) Score(v View) float64 {
	if v.BestECT == NoEstimate {
		// A job no cluster can estimate should not win "largest ECT".
		return -math.MaxFloat64
	}
	return float64(v.BestECT)
}

func (maxGainHeuristic) Score(v View) float64 { return float64(v.Gain()) }

func (maxRelGainHeuristic) Score(v View) float64 { return float64(v.Gain()) / float64(max(v.Procs, 1)) }

func (sufferageHeuristic) Score(v View) float64 { return float64(v.Sufferage()) }

// Heuristics returns the six heuristics in the order of the paper's tables:
// MCT, MinMin, MaxMin, MaxGain, MaxRelGain, Sufferage.
func Heuristics() []Heuristic {
	return []Heuristic{MCT(), MinMin(), MaxMin(), MaxGain(), MaxRelGain(), Sufferage()}
}

// HeuristicByName resolves a heuristic from its table name (case-sensitive).
func HeuristicByName(name string) (Heuristic, error) {
	for _, h := range Heuristics() {
		if h.Name() == name {
			return h, nil
		}
	}
	return nil, fmt.Errorf("core: unknown heuristic %q", name)
}
