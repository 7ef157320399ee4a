package batch

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

func newTestScheduler(t *testing.T, cores int, speed float64, policy Policy) *Scheduler {
	t.Helper()
	s, err := NewScheduler(platform.ClusterSpec{Name: "test", Cores: cores, Speed: speed}, policy)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func job(id int, submit, runtime, walltime int64, procs int) workload.Job {
	return workload.Job{ID: id, Submit: submit, Runtime: runtime, Walltime: walltime, Procs: procs}
}

// collect advances the scheduler to `now` and fails the test on error.
func collect(t *testing.T, s *Scheduler, now int64) []Notification {
	t.Helper()
	notes, err := s.Advance(now)
	if err != nil {
		t.Fatal(err)
	}
	return notes
}

func TestSubmitValidation(t *testing.T) {
	s := newTestScheduler(t, 8, 1.0, FCFS)
	if err := s.Submit(job(1, 0, 10, 20, 9), 0, 0); !errors.Is(err, ErrTooWide) {
		t.Fatalf("too-wide job: err = %v, want ErrTooWide", err)
	}
	if err := s.Submit(job(2, 0, 10, 20, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(2, 0, 10, 20, 4), 0, 0); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("duplicate: err = %v, want ErrDuplicateJob", err)
	}
	if err := s.Submit(job(3, 0, 10, 20, 0), 0, 0); err == nil {
		t.Fatal("invalid job accepted")
	}
	collect(t, s, 5)
	if err := s.Submit(job(4, 0, 10, 20, 4), 1, 0); !errors.Is(err, ErrTimeTravel) {
		t.Fatalf("submission in the past: err = %v, want ErrTimeTravel", err)
	}
}

func TestImmediateStartAndFinish(t *testing.T) {
	s := newTestScheduler(t, 8, 1.0, FCFS)
	if err := s.Submit(job(1, 0, 100, 200, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	notes := collect(t, s, 0)
	if len(notes) != 1 || notes[0].Kind != Started || notes[0].Time != 0 {
		t.Fatalf("notes = %+v, want a start at t=0", notes)
	}
	if s.RunningCount() != 1 || s.WaitingCount() != 0 || s.UsedCores() != 4 {
		t.Fatalf("state after start: running=%d waiting=%d used=%d", s.RunningCount(), s.WaitingCount(), s.UsedCores())
	}
	notes = collect(t, s, 150)
	if len(notes) != 1 || notes[0].Kind != Finished || notes[0].Time != 100 {
		t.Fatalf("notes = %+v, want a finish at t=100 (actual runtime, not walltime)", notes)
	}
	if notes[0].Killed {
		t.Fatal("job within its walltime reported as killed")
	}
	if s.RunningCount() != 0 {
		t.Fatal("job still running after its finish")
	}
}

func TestWalltimeKill(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, FCFS)
	// Bad job: runtime 500 exceeds walltime 200.
	if err := s.Submit(job(1, 0, 500, 200, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	notes := collect(t, s, 1000)
	var finish *Notification
	for i := range notes {
		if notes[i].Kind == Finished {
			finish = &notes[i]
		}
	}
	if finish == nil {
		t.Fatal("job never finished")
	}
	if finish.Time != 200 {
		t.Fatalf("killed at %d, want walltime 200", finish.Time)
	}
	if !finish.Killed {
		t.Fatal("walltime kill not flagged")
	}
}

func TestSpeedScaling(t *testing.T) {
	s := newTestScheduler(t, 4, 2.0, FCFS)
	// Runtime 100 and walltime 300 on the reference cluster become 50/150
	// on a cluster twice as fast.
	if err := s.Submit(job(1, 0, 100, 300, 1), 0, 0); err != nil {
		t.Fatal(err)
	}
	ect, err := s.EstimateCompletion(job(2, 0, 100, 300, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 occupies only 1 core, job 2 needs all 4, so it starts after job
	// 1's scaled walltime reservation (150): ECT = 150 + 150 = 300.
	if ect != 300 {
		t.Fatalf("hypothetical ECT = %d, want 300", ect)
	}
	notes := collect(t, s, 1000)
	if notes[len(notes)-1].Time != 50 {
		t.Fatalf("scaled finish at %d, want 50", notes[len(notes)-1].Time)
	}
}

func TestFCFSNoBackfill(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, FCFS)
	// Job 1 takes the whole cluster for its walltime (1000).
	if err := s.Submit(job(1, 0, 1000, 1000, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 0)
	// Job 2 is wide (4 procs), queued behind job 1.
	if err := s.Submit(job(2, 0, 100, 100, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	// Job 3 is narrow (1 proc) and short. Under FCFS it must NOT start
	// before job 2 even though a core is... (none is free here); use a
	// clearer setup: job 1 uses 3 cores, leaving 1 free.
	s2 := newTestScheduler(t, 4, 1.0, FCFS)
	if err := s2.Submit(job(1, 0, 1000, 1000, 3), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s2, 0)
	if err := s2.Submit(job(2, 0, 100, 100, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s2.Submit(job(3, 0, 10, 10, 1), 0, 0); err != nil {
		t.Fatal(err)
	}
	waiting := s2.WaitingJobs()
	if len(waiting) != 2 {
		t.Fatalf("%d jobs waiting, want 2", len(waiting))
	}
	// Job 2 starts when job 1's reservation ends (1000); job 3 must not
	// start before job 2 under FCFS.
	if waiting[0].Job.ID != 2 || waiting[0].PlannedStart != 1000 {
		t.Fatalf("job 2 planned at %d, want 1000", waiting[0].PlannedStart)
	}
	if waiting[1].Job.ID != 3 || waiting[1].PlannedStart < waiting[0].PlannedStart {
		t.Fatalf("FCFS violated: job 3 planned at %d before job 2 at %d", waiting[1].PlannedStart, waiting[0].PlannedStart)
	}
}

func TestCBFBackfillsHole(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, CBF)
	if err := s.Submit(job(1, 0, 1000, 1000, 3), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 0)
	if err := s.Submit(job(2, 0, 100, 100, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(3, 0, 10, 10, 1), 0, 0); err != nil {
		t.Fatal(err)
	}
	waiting := s.WaitingJobs()
	var job3 WaitingJob
	for _, w := range waiting {
		if w.Job.ID == 3 {
			job3 = w
		}
	}
	// CBF backfills job 3 into the idle core right away (start 0), because
	// doing so does not delay job 2 (which needs the full cluster at 1000).
	if job3.PlannedStart != 0 {
		t.Fatalf("CBF did not backfill: job 3 planned at %d, want 0", job3.PlannedStart)
	}
	// And job 2 keeps its reservation at 1000.
	for _, w := range waiting {
		if w.Job.ID == 2 && w.PlannedStart != 1000 {
			t.Fatalf("backfilling delayed job 2 to %d", w.PlannedStart)
		}
	}
}

func TestEarlyFinishPullsQueueForward(t *testing.T) {
	for _, policy := range []Policy{FCFS, CBF} {
		s := newTestScheduler(t, 4, 1.0, policy)
		// Job 1: walltime 1000 but actually finishes at 100.
		if err := s.Submit(job(1, 0, 100, 1000, 4), 0, 0); err != nil {
			t.Fatal(err)
		}
		collect(t, s, 0)
		if err := s.Submit(job(2, 0, 50, 60, 4), 0, 0); err != nil {
			t.Fatal(err)
		}
		w := s.WaitingJobs()
		if w[0].PlannedStart != 1000 {
			t.Fatalf("[%v] job 2 planned at %d, want 1000 (walltime-based)", policy, w[0].PlannedStart)
		}
		notes := collect(t, s, 2000)
		// Expect: finish job1 at 100, start job2 at 100, finish job2 at 150.
		var starts, finishes []int64
		for _, n := range notes {
			if n.Kind == Started {
				starts = append(starts, n.Time)
			} else {
				finishes = append(finishes, n.Time)
			}
		}
		if len(finishes) != 2 || finishes[0] != 100 || finishes[1] != 150 {
			t.Fatalf("[%v] finishes = %v, want [100 150]", policy, finishes)
		}
		if len(starts) != 1 || starts[0] != 100 {
			t.Fatalf("[%v] job 2 started at %v, want 100 (pulled forward)", policy, starts)
		}
	}
}

func TestCancelWaitingJob(t *testing.T) {
	s := newTestScheduler(t, 2, 1.0, FCFS)
	if err := s.Submit(job(1, 0, 100, 1000, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 0)
	if err := s.Submit(job(2, 0, 100, 100, 2), 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(job(3, 0, 100, 100, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	// Job 3 is planned after job 2.
	before := s.WaitingJobs()
	if before[1].Job.ID != 3 || before[1].PlannedStart <= before[0].PlannedStart {
		t.Fatalf("unexpected plan before cancel: %+v", before)
	}
	got, migrated, err := s.Cancel(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 2 || migrated != 3 {
		t.Fatalf("Cancel returned job %d with %d migrations, want 2 and 3", got.ID, migrated)
	}
	// Job 3 moves up in the plan.
	after := s.WaitingJobs()
	if len(after) != 1 || after[0].Job.ID != 3 {
		t.Fatalf("queue after cancel: %+v", after)
	}
	if after[0].PlannedStart >= before[1].PlannedStart {
		t.Fatalf("job 3 did not move forward after the cancellation: %d -> %d", before[1].PlannedStart, after[0].PlannedStart)
	}
	// Cancelling again or cancelling a running job fails, with distinct
	// sentinels for the two situations.
	if _, _, err := s.Cancel(2, 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("second cancel: err = %v", err)
	}
	if _, _, err := s.Cancel(1, 0); !errors.Is(err, ErrJobRunning) {
		t.Fatalf("cancelling a running job: err = %v, want ErrJobRunning", err)
	}
}

func TestCurrentCompletion(t *testing.T) {
	s := newTestScheduler(t, 2, 1.0, FCFS)
	if err := s.Submit(job(1, 0, 100, 500, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 0)
	if err := s.Submit(job(2, 0, 100, 300, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	// Running job: predicted completion is its walltime end.
	if ect, err := s.CurrentCompletion(1); err != nil || ect != 500 {
		t.Fatalf("running job ECT = %d,%v want 500", ect, err)
	}
	// Waiting job: planned end = 500 + 300.
	if ect, err := s.CurrentCompletion(2); err != nil || ect != 800 {
		t.Fatalf("waiting job ECT = %d,%v want 800", ect, err)
	}
	if _, err := s.CurrentCompletion(99); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: err = %v", err)
	}
}

func TestEstimateCompletionMatchesRealSubmission(t *testing.T) {
	for _, policy := range []Policy{FCFS, CBF} {
		s := newTestScheduler(t, 4, 1.0, policy)
		if err := s.Submit(job(1, 0, 400, 400, 4), 0, 0); err != nil {
			t.Fatal(err)
		}
		collect(t, s, 0)
		if err := s.Submit(job(2, 0, 100, 200, 2), 0, 0); err != nil {
			t.Fatal(err)
		}
		probe := job(3, 0, 150, 150, 2)
		est, err := s.EstimateCompletion(probe, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(probe, 0, 0); err != nil {
			t.Fatal(err)
		}
		actual, err := s.CurrentCompletion(3)
		if err != nil {
			t.Fatal(err)
		}
		if est != actual {
			t.Fatalf("[%v] estimate %d does not match planned completion %d after submitting", policy, est, actual)
		}
	}
}

func TestEstimateCompletionDoesNotMutate(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, CBF)
	if err := s.Submit(job(1, 0, 100, 400, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 0)
	if err := s.Submit(job(2, 0, 100, 200, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	before := s.WaitingJobs()
	for i := 0; i < 5; i++ {
		if _, err := s.EstimateCompletion(job(100+i, 0, 50, 100, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	after := s.WaitingJobs()
	if len(before) != len(after) {
		t.Fatal("EstimateCompletion changed the queue length")
	}
	for i := range before {
		if before[i].PlannedStart != after[i].PlannedStart || before[i].PlannedEnd != after[i].PlannedEnd {
			t.Fatal("EstimateCompletion changed the plan")
		}
	}
	if _, err := s.EstimateCompletion(job(200, 0, 50, 100, 5), 0); !errors.Is(err, ErrTooWide) {
		t.Fatalf("too-wide estimate: err = %v", err)
	}
}

func TestFCFSEstimateGoesToEndOfQueue(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, FCFS)
	if err := s.Submit(job(1, 0, 1000, 1000, 3), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 0)
	if err := s.Submit(job(2, 0, 100, 100, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	// A 1-core probe could fit at t=0 next to job 1, but FCFS places it at
	// the end of the queue: not before job 2 starts at 1000.
	est, err := s.EstimateCompletion(job(3, 0, 10, 10, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if est < 1000 {
		t.Fatalf("FCFS estimate %d jumps the queue", est)
	}
	// The same probe under CBF backfills immediately.
	c := newTestScheduler(t, 4, 1.0, CBF)
	if err := c.Submit(job(1, 0, 1000, 1000, 3), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, c, 0)
	if err := c.Submit(job(2, 0, 100, 100, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	est, err = c.EstimateCompletion(job(3, 0, 10, 10, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if est != 10 {
		t.Fatalf("CBF estimate = %d, want 10 (backfilled at t=0)", est)
	}
}

func TestWaitingJobsSnapshotFields(t *testing.T) {
	s := newTestScheduler(t, 4, 1.5, CBF)
	if err := s.Submit(job(1, 0, 100, 900, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 0)
	if err := s.Submit(job(2, 5, 100, 900, 2), 5, 7); err != nil {
		t.Fatal(err)
	}
	w := s.WaitingJobs()
	if len(w) != 1 {
		t.Fatalf("%d waiting, want 1", len(w))
	}
	got := w[0]
	if got.Job.ID != 2 || got.EnqueuedAt != 5 || got.Reallocations != 7 ||
		got.ClusterName != "test" || got.ClusterSpeedup != 1.5 || got.QueuePosition != 0 {
		t.Fatalf("snapshot = %+v", got)
	}
	if got.PlannedEnd <= got.PlannedStart {
		t.Fatalf("empty planned window: %+v", got)
	}
}

func TestCountersTrackRequests(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, FCFS)
	_ = s.Submit(job(1, 0, 10, 20, 1), 0, 0)
	_ = s.Submit(job(2, 0, 10, 20, 1), 0, 0)
	_, _, _ = s.Cancel(2, 0)
	_, _ = s.EstimateCompletion(job(3, 0, 10, 20, 1), 0)
	_, _ = s.EstimateCompletion(job(4, 0, 10, 20, 1), 0)
	sub, can, ect := s.Counters()
	if sub != 2 || can != 1 || ect != 2 {
		t.Fatalf("counters = %d/%d/%d, want 2/1/2", sub, can, ect)
	}
}

func TestAdvanceTimeTravelRejected(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, FCFS)
	collect(t, s, 100)
	if _, err := s.Advance(50); !errors.Is(err, ErrTimeTravel) {
		t.Fatalf("advance to the past: err = %v", err)
	}
}

func TestNextEventTime(t *testing.T) {
	s := newTestScheduler(t, 2, 1.0, FCFS)
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("idle cluster reports a next event")
	}
	if err := s.Submit(job(1, 0, 100, 200, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	if next, ok := s.NextEventTime(); !ok || next != 0 {
		t.Fatalf("next event = %d,%v want 0,true (planned start)", next, ok)
	}
	collect(t, s, 0)
	if next, ok := s.NextEventTime(); !ok || next != 100 {
		t.Fatalf("next event = %d,%v want 100,true (actual finish)", next, ok)
	}
}

// TestPropertySchedulerInvariants drives a scheduler with a random sequence
// of submissions, cancellations and time advances and checks the exported
// invariants after every operation (no over-subscription, FCFS ordering,
// plans in the future).
func TestPropertySchedulerInvariants(t *testing.T) {
	type op struct {
		Kind    uint8
		Procs   uint8
		Runtime uint16
		Wall    uint16
		Delta   uint16
	}
	for _, policy := range []Policy{FCFS, CBF} {
		policy := policy
		f := func(ops []op) bool {
			s, err := NewScheduler(platform.ClusterSpec{Name: "prop", Cores: 16, Speed: 1.3}, policy)
			if err != nil {
				return false
			}
			now := int64(0)
			nextID := 1
			var waitingIDs []int
			for _, o := range ops {
				switch o.Kind % 3 {
				case 0: // submit
					j := workload.Job{
						ID:       nextID,
						Submit:   now,
						Runtime:  int64(o.Runtime%2000) + 1,
						Walltime: int64(o.Wall%3000) + 1,
						Procs:    int(o.Procs%16) + 1,
					}
					nextID++
					if err := s.Submit(j, now, 0); err != nil {
						return false
					}
					waitingIDs = append(waitingIDs, j.ID)
				case 1: // cancel a random waiting job (ignore failures: it may have started)
					if len(waitingIDs) > 0 {
						id := waitingIDs[int(o.Delta)%len(waitingIDs)]
						_, _, _ = s.Cancel(id, now)
					}
				case 2: // advance time
					now += int64(o.Delta % 500)
					if _, err := s.Advance(now); err != nil {
						return false
					}
					waitingIDs = waitingIDs[:0]
					for _, w := range s.WaitingJobs() {
						waitingIDs = append(waitingIDs, w.Job.ID)
					}
				}
				if err := s.CheckInvariants(); err != nil {
					t.Logf("invariant violated (%v): %v", policy, err)
					return false
				}
			}
			// Drain completely: every submitted job must eventually leave.
			for iter := 0; iter < 100000; iter++ {
				next, ok := s.NextEventTime()
				if !ok {
					break
				}
				if _, err := s.Advance(next); err != nil {
					return false
				}
			}
			return s.RunningCount() == 0 && s.WaitingCount() == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
	}
}

// TestPropertyCBFNeverDelaysEarlierJobs: adding a new job under CBF never
// pushes back the planned start of any job already in the queue
// (conservative backfilling).
func TestPropertyCBFNeverDelaysEarlierJobs(t *testing.T) {
	type jobSpec struct {
		Procs   uint8
		Runtime uint16
		Wall    uint16
	}
	f := func(specs []jobSpec) bool {
		s, err := NewScheduler(platform.ClusterSpec{Name: "cbf", Cores: 12, Speed: 1}, CBF)
		if err != nil {
			return false
		}
		// Occupy the cluster so jobs actually queue.
		if err := s.Submit(job(1000, 0, 5000, 5000, 12), 0, 0); err != nil {
			return false
		}
		if _, err := s.Advance(0); err != nil {
			return false
		}
		for i, spec := range specs {
			before := make(map[int]int64)
			for _, w := range s.WaitingJobs() {
				before[w.Job.ID] = w.PlannedStart
			}
			j := workload.Job{
				ID:       i + 1,
				Submit:   0,
				Runtime:  int64(spec.Runtime%1000) + 1,
				Walltime: int64(spec.Wall%1500) + 1,
				Procs:    int(spec.Procs%12) + 1,
			}
			if err := s.Submit(j, 0, 0); err != nil {
				return false
			}
			for _, w := range s.WaitingJobs() {
				if prev, ok := before[w.Job.ID]; ok && w.PlannedStart > prev {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCompletionNeverBeforeSubmitOrRuntime: every job completes no
// earlier than its submission plus its scaled effective runtime.
func TestPropertyCompletionNeverBeforeSubmitOrRuntime(t *testing.T) {
	type jobSpec struct {
		Gap     uint16
		Procs   uint8
		Runtime uint16
		Wall    uint16
	}
	for _, policy := range []Policy{FCFS, CBF} {
		policy := policy
		f := func(specs []jobSpec) bool {
			spec := platform.ClusterSpec{Name: "c", Cores: 8, Speed: 1.2}
			s, err := NewScheduler(spec, policy)
			if err != nil {
				return false
			}
			now := int64(0)
			submitted := make(map[int]workload.Job)
			starts := make(map[int]int64)
			finishes := make(map[int]int64)
			record := func(notes []Notification) {
				for _, n := range notes {
					if n.Kind == Started {
						starts[n.JobID] = n.Time
					} else {
						finishes[n.JobID] = n.Time
					}
				}
			}
			for i, sp := range specs {
				now += int64(sp.Gap % 300)
				j := workload.Job{
					ID:       i + 1,
					Submit:   now,
					Runtime:  int64(sp.Runtime%800) + 1,
					Walltime: int64(sp.Wall%1200) + 1,
					Procs:    int(sp.Procs%8) + 1,
				}
				notes, err := s.Advance(now)
				if err != nil {
					return false
				}
				record(notes)
				if err := s.Submit(j, now, 0); err != nil {
					return false
				}
				submitted[j.ID] = j
			}
			for {
				next, ok := s.NextEventTime()
				if !ok {
					break
				}
				notes, err := s.Advance(next)
				if err != nil {
					return false
				}
				record(notes)
			}
			for id, j := range submitted {
				start, ok := starts[id]
				if !ok {
					return false
				}
				end, ok := finishes[id]
				if !ok {
					return false
				}
				if start < j.Submit {
					return false
				}
				run := spec.ScaleDuration(j.Runtime)
				wall := spec.ScaleDuration(j.Walltime)
				want := run
				if want > wall {
					want = wall
				}
				if end-start != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(14))}); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
	}
}

func TestPolicyParsing(t *testing.T) {
	if p, err := ParsePolicy("FCFS"); err != nil || p != FCFS {
		t.Fatal("ParsePolicy FCFS broken")
	}
	if p, err := ParsePolicy("CBF"); err != nil || p != CBF {
		t.Fatal("ParsePolicy CBF broken")
	}
	if _, err := ParsePolicy("EASY"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if FCFS.String() != "FCFS" || CBF.String() != "CBF" {
		t.Fatal("Policy.String broken")
	}
	if Started.String() != "started" || Finished.String() != "finished" {
		t.Fatal("NotificationKind.String broken")
	}
}

func TestSnapshot(t *testing.T) {
	s := newTestScheduler(t, 4, 1.0, FCFS)
	if err := s.Submit(job(1, 0, 100, 300, 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, s, 0)
	if err := s.Submit(job(2, 0, 100, 300, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.ClusterName != "test" || len(snap.Running) != 1 || len(snap.Waiting) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Running[0].JobID != 1 || snap.Waiting[0].JobID != 2 {
		t.Fatalf("snapshot content = %+v", snap)
	}
}

// TestCheckInvariantsRejectsCorruption corrupts one piece of scheduler
// state at a time and requires the consistency checkers the property tests
// and the fuzz oracle rely on to report it. The fixture is a 4-core FCFS
// cluster with one full-width job running over [0,100) and three 1-core
// jobs planned over [100,200).
func TestCheckInvariantsRejectsCorruption(t *testing.T) {
	build := func() *Scheduler {
		s := newTestScheduler(t, 4, 1.0, FCFS)
		if err := s.Submit(job(1, 0, 100, 100, 4), 0, 0); err != nil {
			t.Fatal(err)
		}
		collect(t, s, 0)
		for id := 2; id <= 4; id++ {
			if err := s.Submit(job(id, 0, 100, 100, 1), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("clean fixture: %v", err)
		}
		return s
	}
	cases := []struct {
		want    string
		corrupt func(s *Scheduler)
	}{
		{"index out of sync", func(s *Scheduler) { delete(s.waitingByID, 3) }},
		{"running index misses", func(s *Scheduler) {
			a := *s.running[0]
			s.runningByID[1] = &a
		}},
		{"running over-subscription", func(s *Scheduler) { s.running[0].job.Procs = 5 }},
		{"waiting index misses", func(s *Scheduler) {
			e := *s.waiting[0]
			s.waitingByID[2] = &e
		}},
		{"before now", func(s *Scheduler) { s.waiting[0].plannedStart = -1 }},
		{"empty planned window", func(s *Scheduler) { s.waiting[0].plannedEnd = s.waiting[0].plannedStart }},
		{"planned over-subscription", func(s *Scheduler) { s.waiting[0].plannedStart = 50 }},
		{"FCFS order violated", func(s *Scheduler) { s.waiting[1].plannedStart, s.waiting[1].plannedEnd = 200, 300 }},
		{"queue order corrupted", func(s *Scheduler) { s.waiting[1].seq = s.waiting[0].seq }},
		{"incremental run profile diverged", func(s *Scheduler) { s.runProf.free[len(s.runProf.free)-1]-- }},
		{"plan diverged on", func(s *Scheduler) { s.waiting[2].plannedStart, s.waiting[2].plannedEnd = 150, 250 }},
		{"FCFS lower bound diverged", func(s *Scheduler) { s.maxPlannedStart = 999 }},
	}
	for _, c := range cases {
		s := build()
		c.corrupt(s)
		if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("CheckInvariants = %v, want an error containing %q", err, c.want)
		}
	}
}
