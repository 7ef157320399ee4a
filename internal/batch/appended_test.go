package batch

// Tests for the queue-prefix plan and the append rule: a plan extended on
// demand must equal the plan an eager re-plan after every mutation
// publishes, and an answer Appended.Keeps accepts must equal a fresh slot
// search.

import (
	"math/rand"
	"slices"
	"testing"

	"gridrealloc/internal/platform"
)

// windowedScheduler returns a scheduler with a random core count and one to
// three random maintenance or outage windows, with its core count and an
// instant past every window.
func windowedScheduler(t *testing.T, rng *rand.Rand, policy Policy) (*Scheduler, int, int64) {
	t.Helper()
	cores := 8 + rng.Intn(24)
	var events []platform.CapacityEvent
	at := int64(rng.Intn(200))
	for len(events) < 1+rng.Intn(3) {
		length := int64(50 + rng.Intn(300))
		kind := platform.Maintenance
		if rng.Intn(2) == 0 {
			kind = platform.Outage
		}
		events = append(events, platform.CapacityEvent{Start: at, End: at + length, Cores: rng.Intn(cores), Kind: kind})
		at += length + int64(1+rng.Intn(200))
	}
	return capacityScheduler(t, cores, policy, events...), cores, at
}

// jobSpec is a job submitted at its now.
type jobSpec struct {
	id        int
	now       int64
	run, wall int64
	procs     int
}

// randomJob draws a job of at most cores processors; its runtime is often
// shorter than its walltime, so it can finish early.
func randomJob(rng *rand.Rand, id int, now int64, cores int) jobSpec {
	run := int64(1 + rng.Intn(200))
	return jobSpec{id: id, now: now, run: run, wall: run + int64(rng.Intn(200)), procs: 1 + rng.Intn(cores)}
}

func (j jobSpec) submit(t *testing.T, s *Scheduler) {
	t.Helper()
	if err := s.Submit(job(j.id, j.now, j.run, j.wall, j.procs), j.now, 0); err != nil {
		t.Fatal(err)
	}
}

func snapshotAt(t *testing.T, s *Scheduler, now int64) EstimateSnapshot {
	t.Helper()
	sn, err := s.EstimateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

func TestAppendedKeepsIsSound(t *testing.T) {
	type probe struct {
		procs     int
		wall, ect int64
	}
	kept, requeried := 0, 0
	for _, policy := range []Policy{FCFS, CBF} {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s, cores, _ := windowedScheduler(t, rng, policy)
			s.SetDebugCrossCheck(false)
			now, id := int64(0), 0
			probes := make([]probe, 16)
			for step := 0; step < 40; step++ {
				for k := rng.Intn(4); k > 0; k-- {
					id++
					randomJob(rng, id, now, cores).submit(t, s)
				}
				if rng.Intn(3) == 0 {
					now += int64(rng.Intn(150))
					collect(t, s, now)
				}
				prev := snapshotAt(t, s, now)
				for i := range probes {
					p := probe{procs: 1 + rng.Intn(cores), wall: int64(1 + rng.Intn(400))}
					ect, ok := prev.TryEstimateCompletionScaled(p.procs, p.wall)
					if !ok {
						t.Fatalf("seed %d: fresh snapshot refused %+v", seed, p)
					}
					p.ect = ect
					probes[i] = p
				}
				id++
				randomJob(rng, id, now, cores).submit(t, s)
				if !prev.Stale() {
					t.Fatalf("[%v] seed %d step %d: a snapshot survived a submit", policy, seed, step)
				}
				sn := snapshotAt(t, s, now)
				app, ok := sn.AppendedSince(prev)
				if !ok {
					t.Fatalf("[%v] seed %d step %d: a single submit was not recognised as an append", policy, seed, step)
				}
				for _, p := range probes {
					if !app.Keeps(p.procs, p.wall, p.ect) {
						requeried++
						continue
					}
					kept++
					if got, _ := sn.TryEstimateCompletionScaled(p.procs, p.wall); got != p.ect {
						t.Fatalf("[%v] seed %d step %d: kept ECT %d for %+v, fresh query says %d (append %+v)",
							policy, seed, step, p.ect, p, got, app)
					}
				}
			}
		}
	}
	if kept == 0 || requeried == 0 {
		t.Fatalf("vacuous: %d answers kept, %d re-queried", kept, requeried)
	}
}

func TestAppendedSinceRefuses(t *testing.T) {
	for _, policy := range []Policy{FCFS, CBF} {
		// setup gives a scheduler with two running jobs (job 1 finishes
		// early at 100) and three queued ones, and a snapshot of it at 0.
		setup := func() (*Scheduler, EstimateSnapshot) {
			s := newTestScheduler(t, 8, 1.0, policy)
			for i, j := range []jobSpec{
				{id: 1, run: 100, wall: 500, procs: 4},
				{id: 2, run: 600, wall: 600, procs: 4},
				{id: 3, run: 50, wall: 300, procs: 6},
				{id: 4, run: 50, wall: 200, procs: 2},
				{id: 5, run: 50, wall: 100, procs: 8},
			} {
				j.submit(t, s)
				if i == 1 {
					collect(t, s, 0)
				}
			}
			return s, snapshotAt(t, s, 0)
		}
		appended := func(s *Scheduler, prev EstimateSnapshot, now int64) bool {
			_, ok := snapshotAt(t, s, now).AppendedSince(prev)
			return ok
		}
		next := jobSpec{id: 10, run: 30, wall: 60, procs: 3}

		s, prev := setup()
		next.submit(t, s)
		if !appended(s, prev, 0) {
			t.Fatalf("[%v] a single submit was refused", policy)
		}
		cases := []struct {
			name   string
			mutate func(*Scheduler) int64
		}{
			{"cancel", func(s *Scheduler) int64 {
				if _, _, err := s.Cancel(4, 0); err != nil {
					t.Fatal(err)
				}
				next.submit(t, s)
				return 0
			}},
			{"invalidate", func(s *Scheduler) int64 {
				s.InvalidatePlan()
				next.submit(t, s)
				return 0
			}},
			{"two submits", func(s *Scheduler) int64 {
				next.submit(t, s)
				jobSpec{id: 11, run: 30, wall: 60, procs: 1}.submit(t, s)
				return 0
			}},
			{"early finish", func(s *Scheduler) int64 {
				if notes := collect(t, s, 100); len(notes) == 0 {
					t.Fatal("job 1 did not finish early at 100")
				}
				jobSpec{id: 10, now: 100, run: 30, wall: 60, procs: 3}.submit(t, s)
				return 100
			}},
			{"reset", func(s *Scheduler) int64 {
				if err := s.Reset(s.Spec(), policy); err != nil {
					t.Fatal(err)
				}
				next.submit(t, s)
				return 0
			}},
		}
		for _, c := range cases {
			s, prev := setup()
			if now := c.mutate(s); appended(s, prev, now) {
				t.Errorf("[%v] AppendedSince accepted a snapshot taken before a %s", policy, c.name)
			}
		}
		s, _ = setup()
		_, other := setup()
		next.submit(t, s)
		if appended(s, other, 0) {
			t.Errorf("[%v] AppendedSince accepted another scheduler's snapshot", policy)
		}
	}
}

func TestLazyPrefixMatchesEagerPlan(t *testing.T) {
	for _, policy := range []Policy{FCFS, CBF} {
		for _, outagePolicy := range []OutagePolicy{KillDisplaced, RequeueDisplaced} {
			for seed := int64(0); seed < 20; seed++ {
				build := func() (*Scheduler, int) {
					s, cores, _ := windowedScheduler(t, rand.New(rand.NewSource(seed)), policy)
					s.SetOutagePolicy(outagePolicy)
					return s, cores
				}
				lazy, cores := build()
				eager, _ := build()
				// The eager twin re-plans its whole queue after every
				// mutation, as the scheduler did before plans grew on
				// demand.
				replan := func() {
					eager.InvalidatePlan()
					_ = eager.AppendWaitingJobs(nil)
				}
				rng := rand.New(rand.NewSource(seed + 1000))
				now, id := int64(0), 0
				for step := 0; step < 200; step++ {
					switch op := rng.Intn(10); {
					case op < 4:
						id++
						j := randomJob(rng, id, now, cores)
						j.submit(t, lazy)
						j.submit(t, eager)
						replan()
					case op < 5:
						victim := 1 + rng.Intn(max(id, 1))
						_, _, errL := lazy.Cancel(victim, now)
						_, _, errE := eager.Cancel(victim, now)
						if (errL == nil) != (errE == nil) {
							t.Fatalf("seed %d step %d: cancel %d: lazy %v, eager %v", seed, step, victim, errL, errE)
						}
						replan()
					case op < 8:
						now += int64(rng.Intn(120))
						notesL := slices.Clone(collect(t, lazy, now))
						notesE := collect(t, eager, now)
						if !slices.Equal(notesL, notesE) {
							t.Fatalf("[%v/%v] seed %d step %d: Advance(%d) notes differ:\nlazy  %v\neager %v",
								policy, outagePolicy, seed, step, now, notesL, notesE)
						}
						replan()
					case op < 9:
						probe := job(-1, now, 1, int64(1+rng.Intn(400)), 1+rng.Intn(cores))
						ectL, okL := lazy.TryEstimateCompletion(probe, now)
						ectE, okE := eager.TryEstimateCompletion(probe, now)
						if ectL != ectE || okL != okE {
							t.Fatalf("[%v/%v] seed %d step %d: estimate lazy %d/%v, eager %d/%v",
								policy, outagePolicy, seed, step, ectL, okL, ectE, okE)
						}
					default:
						if l, e := lazy.AppendWaitingJobs(nil), eager.AppendWaitingJobs(nil); !slices.Equal(l, e) {
							t.Fatalf("[%v/%v] seed %d step %d: waiting queues differ:\nlazy  %+v\neager %+v",
								policy, outagePolicy, seed, step, l, e)
						}
					}
					tL, okL := lazy.NextEventTime()
					tE, okE := eager.NextEventTime()
					if tL != tE || okL != okE {
						t.Fatalf("[%v/%v] seed %d step %d: next event lazy %d/%v, eager %d/%v",
							policy, outagePolicy, seed, step, tL, okL, tE, okE)
					}
				}
				if err := lazy.CheckInvariants(); err != nil {
					t.Fatalf("[%v/%v] seed %d: %v", policy, outagePolicy, seed, err)
				}
			}
		}
	}
}
