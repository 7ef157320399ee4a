package core

// Tests for the cancel/start race handling: when a reallocation sweep picks
// a job that started between the queue snapshot and the cancellation
// attempt, the agent must skip that one candidate and keep sweeping instead
// of aborting the whole pass.

import (
	"errors"
	"testing"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/server"
	"gridrealloc/internal/workload"
)

// raceServers builds a busy origin whose blocker finishes early (so the
// waiting candidate is pulled forward and started the moment time advances)
// and an idle destination that offers a much better estimate.
func raceServers(t *testing.T) (origin, idle *server.Server) {
	t.Helper()
	var err error
	origin, err = server.New(platform.ClusterSpec{Name: "busy", Cores: 1, Speed: 1}, batch.CBF)
	if err != nil {
		t.Fatal(err)
	}
	idle, err = server.New(platform.ClusterSpec{Name: "idle", Cores: 1, Speed: 1}, batch.CBF)
	if err != nil {
		t.Fatal(err)
	}
	// The blocker reserves until t=1000 but actually finishes at t=30.
	if err := origin.Submit(workload.Job{ID: 1, Submit: 0, Runtime: 30, Walltime: 1000, Procs: 1}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := origin.Scheduler().Advance(0); err != nil {
		t.Fatal(err)
	}
	// The candidate is planned at t=1000 behind the blocker's reservation.
	if err := origin.Submit(workload.Job{ID: 2, Submit: 0, Runtime: 100, Walltime: 100, Procs: 1}, 0, 0); err != nil {
		t.Fatal(err)
	}
	return origin, idle
}

func TestReallocationSkipsCancelStartRace(t *testing.T) {
	origin, idle := raceServers(t)
	servers := []*server.Server{origin, idle}
	agent, err := NewAgent(servers, MCTMapping(), ReallocConfig{
		Algorithm: WithoutCancellation,
		Heuristic: MCT(),
		MinGain:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent.onPick = func(pick candidate) {
		// Simulate the race: the blocker's early finish is observed and the
		// candidate starts, after the sweep snapshotted the queue but
		// before the agent cancels.
		if pick.Job.ID == 2 {
			if _, err := origin.Scheduler().Advance(50); err != nil {
				t.Fatal(err)
			}
		}
	}
	moves, err := agent.Reallocate(50)
	if err != nil {
		t.Fatalf("sweep aborted on a cancel/start race: %v", err)
	}
	if moves != 0 {
		t.Fatalf("raced job counted as moved: %d moves", moves)
	}
	if agent.SkippedRaces() != 1 {
		t.Fatalf("SkippedRaces = %d, want 1", agent.SkippedRaces())
	}
	// The job kept running on its origin cluster, untouched.
	if origin.Scheduler().RunningCount() != 1 {
		t.Fatalf("raced job not running on origin: %d running", origin.Scheduler().RunningCount())
	}
	if idle.Scheduler().WaitingCount() != 0 || idle.Scheduler().RunningCount() != 0 {
		t.Fatal("raced job leaked onto the destination cluster")
	}
}

// TestMoveJobReportsRunningRace checks the sentinel plumbing the sweep
// relies on: moveJob surfaces batch.ErrJobRunning through its wrapping so
// callers can distinguish the race from a fatal error. Algorithm 2's
// cancel-all loop uses the same errors.Is test.
func TestMoveJobReportsRunningRace(t *testing.T) {
	origin, idle := raceServers(t)
	agent, err := NewAgent([]*server.Server{origin, idle}, MCTMapping(), ReallocConfig{Algorithm: WithCancellation})
	if err != nil {
		t.Fatal(err)
	}
	// Start the candidate, then try to move it.
	if _, err := origin.Scheduler().Advance(50); err != nil {
		t.Fatal(err)
	}
	moveErr := agent.moveJob(candidate{Job: workload.Job{ID: 2, Submit: 0, Runtime: 100, Walltime: 100, Procs: 1}, origin: 0}, 1, 50)
	if !errors.Is(moveErr, batch.ErrJobRunning) {
		t.Fatalf("moveJob err = %v, want batch.ErrJobRunning", moveErr)
	}
}
