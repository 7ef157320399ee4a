package core

// Differential test of the grouped reallocation sweep. A naive reference
// picker replays each pass with none of the sweep's bookkeeping: after every
// placement it takes fresh snapshots of every cluster, rebuilds every
// remaining candidate's Estimate with an O(m) scan in platform order and
// takes a linear argmax with the (submission time, job ID) tie-break. On
// random platforms whose waiting jobs share shapes across origins, the
// sweep must reproduce its picks and destinations exactly.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/server"
	"gridrealloc/internal/workload"
)

// scanEstimate builds an Estimate from one answer per cluster by a scan in
// platform order, the origin answering originECT.
func scanEstimate(ects []int64, origin int, originECT int64) Estimate {
	est := Estimate{BestECT: NoEstimate, BestCluster: -1, SecondECT: NoEstimate, BestOtherECT: NoEstimate, BestOtherCluster: -1}
	for idx, ect := range ects {
		if idx == origin {
			ect = originECT
		}
		if ect == NoEstimate {
			continue
		}
		if ect < est.BestECT {
			est.SecondECT = est.BestECT
			est.BestECT, est.BestCluster = ect, idx
		} else if ect < est.SecondECT {
			est.SecondECT = ect
		}
		if idx != origin && ect < est.BestOtherECT {
			est.BestOtherECT, est.BestOtherCluster = ect, idx
		}
	}
	return est
}

// TestRescoreMatchesScan checks the sweep's O(1) Estimate, derived from a
// shape's three lowest answers, against the scan on random columns drawn
// from few values, so ties and absent answers are frequent.
func TestRescoreMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := []int64{100, 200, 300, NoEstimate}
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(6)
		sw := &sweep{a: &Agent{realloc: ReallocConfig{Heuristic: MCT()}}, cancelled: trial%2 == 0}
		ects := make([]int64, m)
		for idx := range ects {
			ects[idx] = values[rng.Intn(len(values))]
			sw.cols = append(sw.cols, shapeColumn{ects: []int64{ects[idx]}})
		}
		sw.top = make([][3]answer, 1)
		sw.rank(0)
		for origin := range ects {
			grp := &group{origin: origin}
			grp.view.OriginECT = values[rng.Intn(len(values))]
			sw.rescore(grp)
			want := scanEstimate(ects, origin, grp.view.OriginECT)
			if grp.view.Estimate != want {
				t.Fatalf("trial %d: columns %v, origin %d answering %d, cancelled %v: got %+v, want %+v",
					trial, ects, origin, grp.view.OriginECT, sw.cancelled, grp.view.Estimate, want)
			}
		}
	}
}

// refCandidate is one waiting job in the reference pass.
type refCandidate struct {
	job      workload.Job
	origin   int
	migrated int
}

// referencePass runs one reallocation pass the naive way and returns its
// moves and every pick as "id>cluster".
func referencePass(t *testing.T, servers []*server.Server, alg Algorithm, h Heuristic, minGain, now int64) (int, []string) {
	t.Helper()
	var cands []refCandidate
	for idx, s := range servers {
		for _, w := range s.Scheduler().AppendWaitingJobs(nil) {
			cands = append(cands, refCandidate{w.Job, idx, w.Reallocations})
		}
	}
	slices.SortStableFunc(cands, func(x, y refCandidate) int {
		if x.job.Submit != y.job.Submit {
			return int(x.job.Submit - y.job.Submit)
		}
		return x.job.ID - y.job.ID
	})
	if alg == WithCancellation {
		for i, c := range cands {
			job, migrated, err := servers[c.origin].Cancel(c.job.ID, now)
			if err != nil {
				t.Fatal(err)
			}
			cands[i].job, cands[i].migrated = job, migrated
		}
	}
	moves := 0
	var picks []string
	for len(cands) > 0 {
		snaps := make([]batch.EstimateSnapshot, len(servers))
		for idx, s := range servers {
			sn, err := s.EstimateSnapshot(now)
			if err != nil {
				t.Fatal(err)
			}
			snaps[idx] = sn
		}
		best, bestScore := -1, 0.0
		var bestView View
		for i, c := range cands {
			ects := make([]int64, len(servers))
			for idx, sn := range snaps {
				ects[idx] = NoEstimate
				if ect, ok := sn.TryEstimateCompletion(c.job); ok {
					ects[idx] = ect
				}
			}
			originECT := ects[c.origin]
			if alg == WithoutCancellation {
				ect, err := servers[c.origin].CurrentCompletion(c.job.ID)
				if err != nil {
					t.Fatal(err)
				}
				originECT = ect
			}
			v := View{Procs: c.job.Procs, Walltime: c.job.Walltime, OriginECT: originECT, Estimate: scanEstimate(ects, c.origin, originECT)}
			score := h.Score(v)
			if best < 0 || score > bestScore || score == bestScore && (c.job.Submit < cands[best].job.Submit || c.job.Submit == cands[best].job.Submit && c.job.ID < cands[best].job.ID) {
				best, bestScore, bestView = i, score, v
			}
		}
		c := cands[best]
		cands = slices.Delete(cands, best, best+1)
		dest := c.origin
		if alg == WithoutCancellation {
			if bestView.BestOtherECT != NoEstimate && bestView.BestOtherECT+minGain < bestView.OriginECT {
				dest = bestView.BestOtherCluster
				job, migrated, err := servers[c.origin].Cancel(c.job.ID, now)
				if err != nil {
					t.Fatal(err)
				}
				if err := servers[dest].Submit(job, now, migrated+1); err != nil {
					t.Fatal(err)
				}
				moves++
			}
		} else {
			if bestView.BestECT != NoEstimate {
				dest = bestView.BestCluster
			}
			migrated := c.migrated
			if dest != c.origin {
				migrated++
				moves++
			}
			if err := servers[dest].Submit(c.job, now, migrated); err != nil {
				t.Fatal(err)
			}
		}
		picks = append(picks, fmt.Sprintf("%d>%s", c.job.ID, servers[dest].Name()))
	}
	return moves, picks
}

// randomPlatform builds 2–6 clusters of mixed sizes and speeds, each with a
// blocker running from t=0, and waiting jobs drawn from a few shapes so
// that one shape is queued on several origins. Submission times repeat so
// the tie-break decides some picks. With maint, one cluster carries an
// announced maintenance window.
func randomPlatform(t *testing.T, seed int64, policy batch.Policy, maint bool) []*server.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(5)
	sizes := []int{4, 6, 8, 12, 16}
	speeds := []float64{0.5, 1, 1.5, 2}
	servers := make([]*server.Server, m)
	maintOn := rng.Intn(m)
	for idx := range servers {
		spec := platform.ClusterSpec{Name: string(rune('a' + idx)), Cores: sizes[rng.Intn(len(sizes))], Speed: speeds[rng.Intn(len(speeds))]}
		if maint && idx == maintOn {
			spec.Capacity = []platform.CapacityEvent{{Start: 100 + int64(rng.Intn(400)), End: 1500 + int64(rng.Intn(1500)), Cores: spec.Cores / 2, Kind: platform.Maintenance}}
		}
		s, err := server.New(spec, policy)
		if err != nil {
			t.Fatal(err)
		}
		blocker := workload.Job{ID: 1000 + idx, Runtime: 300 + int64(rng.Intn(2000)), Procs: 1 + rng.Intn(spec.Cores)}
		blocker.Walltime = blocker.Runtime + int64(rng.Intn(600))
		if err := s.Submit(blocker, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Scheduler().Advance(0); err != nil {
			t.Fatal(err)
		}
		servers[idx] = s
	}
	type shape struct {
		procs int
		wall  int64
	}
	shapes := make([]shape, 2+rng.Intn(4))
	for k := range shapes {
		shapes[k] = shape{1 + rng.Intn(12), []int64{300, 600, 1200, 2400}[rng.Intn(4)]}
	}
	n := 6 + rng.Intn(18)
	for id := 1; id <= n; id++ {
		sh := shapes[rng.Intn(len(shapes))]
		var fits []int
		for idx, s := range servers {
			if s.Scheduler().Spec().Cores >= sh.procs {
				fits = append(fits, idx)
			}
		}
		if len(fits) == 0 {
			continue
		}
		job := workload.Job{ID: id, Submit: int64(rng.Intn(4)) * 10, Procs: sh.procs, Walltime: sh.wall}
		job.Runtime = sh.wall/2 + int64(rng.Intn(int(sh.wall/2)))
		if err := servers[fits[rng.Intn(len(fits))]].Submit(job, 30, 0); err != nil {
			t.Fatal(err)
		}
	}
	return servers
}

func TestSweepMatchesReference(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	const minGain = 60
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, policy := range []batch.Policy{batch.FCFS, batch.CBF} {
			for _, maint := range []bool{false, true} {
				for _, alg := range []Algorithm{WithoutCancellation, WithCancellation} {
					for _, h := range Heuristics() {
						got := randomPlatform(t, seed, policy, maint)
						ref := randomPlatform(t, seed, policy, maint)
						agent, err := NewAgent(got, MCTMapping(), ReallocConfig{Algorithm: alg, Heuristic: h, MinGain: minGain})
						if err != nil {
							t.Fatal(err)
						}
						var picks []int
						agent.onPick = func(c candidate) { picks = append(picks, c.Job.ID) }
						for _, now := range []int64{60, 700, 1500} {
							for k := range got {
								if _, err := got[k].Scheduler().Advance(now); err != nil {
									t.Fatal(err)
								}
								if _, err := ref[k].Scheduler().Advance(now); err != nil {
									t.Fatal(err)
								}
							}
							picks = picks[:0]
							moves, err := agent.Reallocate(now)
							if err != nil {
								t.Fatal(err)
							}
							var rendered []string
							for _, id := range picks {
								rendered = append(rendered, fmt.Sprintf("%d>%s", id, clusterHolding(got, id)))
							}
							wantMoves, want := referencePass(t, ref, alg, h, minGain, now)
							if moves != wantMoves || !slices.Equal(rendered, want) {
								t.Fatalf("seed %d %v maint=%v %v/%s at %d:\n sweep     %d moves: %s\n reference %d moves: %s",
									seed, policy, maint, alg, h.Name(), now,
									moves, strings.Join(rendered, " "), wantMoves, strings.Join(want, " "))
							}
						}
					}
				}
			}
		}
	}
}
