package core

// Move-sequence pins for the reallocation sweep. Small three-cluster
// fixtures hold waiting jobs that share a shape (processor count and
// walltime) but sit on different origin clusters, so one shape's ECT
// answers several candidates whose estimates still differ by origin. Every
// heuristic under both algorithms must reproduce the exact sequence of
// picks and destinations recorded from the per-candidate sweep the
// shape-indexed one replaced.

import (
	"fmt"
	"strings"
	"testing"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/server"
	"gridrealloc/internal/workload"
)

// sweepFixture builds three clusters of different sizes and speeds, each
// with a blocker running from t=0, and nine waiting jobs in three shapes
// spread over the origins. The 8-processor shape cannot run on "c".
// Submission times repeat so the (submit, ID) tie-break decides some picks.
func sweepFixture(t *testing.T, policy batch.Policy, capacity map[string][]platform.CapacityEvent) []*server.Server {
	t.Helper()
	specs := []platform.ClusterSpec{
		{Name: "a", Cores: 8, Speed: 1},
		{Name: "b", Cores: 8, Speed: 1.5},
		{Name: "c", Cores: 6, Speed: 0.5},
	}
	blockers := []workload.Job{
		{ID: 100, Runtime: 2500, Walltime: 3000, Procs: 6},
		{ID: 101, Runtime: 1200, Walltime: 1500, Procs: 8},
		{ID: 102, Runtime: 600, Walltime: 800, Procs: 2},
	}
	type waiting struct {
		origin int
		job    workload.Job
	}
	small := func(id int, submit int64) workload.Job {
		return workload.Job{ID: id, Submit: submit, Runtime: 400, Walltime: 600, Procs: 2}
	}
	mid := func(id int, submit int64) workload.Job {
		return workload.Job{ID: id, Submit: submit, Runtime: 900, Walltime: 1200, Procs: 4}
	}
	wide := func(id int, submit int64) workload.Job {
		return workload.Job{ID: id, Submit: submit, Runtime: 200, Walltime: 300, Procs: 8}
	}
	queue := []waiting{
		{0, small(1, 10)}, {0, mid(2, 10)}, {0, wide(3, 20)},
		{1, small(4, 10)}, {1, wide(5, 30)}, {1, mid(6, 40)},
		{2, small(7, 5)}, {2, mid(8, 20)}, {0, small(9, 50)},
	}
	servers := make([]*server.Server, len(specs))
	for i, spec := range specs {
		spec.Capacity = capacity[spec.Name]
		s, err := server.New(spec, policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(blockers[i], 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Scheduler().Advance(0); err != nil {
			t.Fatal(err)
		}
		servers[i] = s
	}
	for _, w := range queue {
		if err := servers[w.origin].Submit(w.job, w.job.Submit, 0); err != nil {
			t.Fatal(err)
		}
	}
	return servers
}

// clusterHolding returns the name of the cluster holding the job, waiting
// or running, or "gone" when none does.
func clusterHolding(servers []*server.Server, id int) string {
	for _, s := range servers {
		if _, err := s.CurrentCompletion(id); err == nil {
			return s.Name()
		}
	}
	return "gone"
}

// sweepSequence runs one reallocation pass at each instant and renders
// every pick as "id>cluster" (where the job sits after the pass), passes
// separated by " | ". A non-nil fire runs inside each pass, once its first
// pick is made and before the pass acts on it.
func sweepSequence(t *testing.T, servers []*server.Server, alg Algorithm, h Heuristic, fire func(), at ...int64) string {
	t.Helper()
	agent, err := NewAgent(servers, MCTMapping(), ReallocConfig{Algorithm: alg, Heuristic: h})
	if err != nil {
		t.Fatal(err)
	}
	var picks []int
	agent.onPick = func(c candidate) {
		if fire != nil && len(picks) == 0 {
			fire()
		}
		picks = append(picks, c.Job.ID)
	}
	var passes []string
	for _, now := range at {
		picks = picks[:0]
		if _, err := agent.Reallocate(now); err != nil {
			t.Fatalf("pass at %d: %v", now, err)
		}
		var b strings.Builder
		for k, id := range picks {
			if k > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d>%s", id, clusterHolding(servers, id))
		}
		passes = append(passes, b.String())
	}
	return strings.Join(passes, " | ")
}

func TestSweepMoveSequences(t *testing.T) {
	want := map[string]string{
		"FCFS/realloc/Mct":               "7>c 1>a 2>b 4>b 3>b 8>b 5>b 6>b 9>a | 7>c 1>a 2>b 4>b 3>b 8>b 5>b 6>b 9>a",
		"FCFS/realloc/MinMin":            "1>a 7>c 4>b 5>b 9>b 6>b 3>b 2>b 8>b | 1>a 7>c 4>a 5>b 9>b 6>b 3>b 2>b 8>b",
		"FCFS/realloc/MaxMin":            "3>b 2>b 8>b 6>b 5>b 7>c 4>c 9>a 1>a | 2>b 8>b 3>b 6>b 7>c 4>c 9>a 5>b 1>a",
		"FCFS/realloc/MaxGain":           "9>b 3>b 2>b 8>b 4>a 7>c 1>a 6>b 5>b | 9>b 7>c 4>a 2>b 8>b 3>b 1>a 6>b 5>b",
		"FCFS/realloc/MaxRelGain":        "9>b 2>b 8>b 4>c 3>b 7>c 5>b 6>b 1>a | 9>a 3>b 8>b 5>b 2>b 6>b 1>a 7>c 4>c",
		"FCFS/realloc/Sufferage":         "5>b 6>b 3>b 1>a 7>c 4>b 2>b 9>a 8>b | 5>b 6>b 1>a 3>b 9>a 7>c 4>b 2>b 8>b",
		"FCFS/realloc-cancel/Mct":        "7>a 1>a 2>b 4>c 3>b 8>b 5>b 6>c 9>a | 7>a 1>b 2>b 4>b 3>b 8>b 5>b 6>c 9>a",
		"FCFS/realloc-cancel/MinMin":     "7>a 3>b 1>a 4>c 9>c 5>b 2>b 8>b 6>b | 3>b 7>a 5>b 1>b 4>b 9>b 2>b 8>b 6>c",
		"FCFS/realloc-cancel/MaxMin":     "2>b 3>b 8>c 6>b 5>b 7>a 1>a 4>a 9>a | 2>b 3>b 8>b 5>b 6>c 7>a 1>a 4>a 9>c",
		"FCFS/realloc-cancel/MaxGain":    "2>b 3>b 4>a 6>c 8>b 7>a 5>b 1>a 9>a | 6>b 7>a 1>b 4>b 9>b 2>b 3>b 8>c 5>b",
		"FCFS/realloc-cancel/MaxRelGain": "2>b 4>a 8>b 3>b 6>c 7>a 5>b 1>a 9>a | 6>b 7>a 1>b 4>b 9>b 2>b 3>b 8>c 5>b",
		"FCFS/realloc-cancel/Sufferage":  "3>b 5>b 7>a 2>b 8>b 6>c 1>a 4>a 9>a | 3>b 5>b 2>b 8>b 7>a 6>b 1>a 4>c 9>c",
		"CBF/realloc/Mct":                "7>c 1>a 2>b 4>b 3>b 8>b 5>b 6>b 9>a | 7>c 1>a 2>b 4>b 3>b 8>b 5>b 6>b 9>a",
		"CBF/realloc/MinMin":             "1>a 7>c 9>a 4>b 5>b 2>b 6>b 3>b 8>b | 1>a 7>c 9>a 4>b 5>b 2>b 6>b 3>b 8>b",
		"CBF/realloc/MaxMin":             "3>b 2>b 8>b 6>b 5>b 7>c 4>c 9>a 1>a | 8>b 3>b 2>b 6>b 7>c 4>c 9>a 5>b 1>a",
		"CBF/realloc/MaxGain":            "3>b 2>b 8>b 4>c 7>c 9>a 6>b 1>a 5>b | 7>c 4>c 8>b 3>b 9>a 2>b 6>b 1>a 5>b",
		"CBF/realloc/MaxRelGain":         "2>b 8>b 4>c 3>b 5>b 7>c 6>b 9>a 1>a | 3>b 8>b 5>b 7>c 4>c 2>b 6>b 9>a 1>a",
		"CBF/realloc/Sufferage":          "5>b 3>b 2>b 6>b 1>a 4>b 8>b 7>c 9>a | 5>b 2>b 6>b 1>a 3>b 4>b 8>b 7>c 9>a",
		"CBF/realloc-cancel/Mct":         "7>a 1>a 2>b 4>c 3>b 8>b 5>b 6>b 9>c | 7>a 1>b 2>b 4>b 3>b 8>b 5>b 6>b 9>b",
		"CBF/realloc-cancel/MinMin":      "7>a 3>b 1>a 4>c 9>c 5>b 2>b 8>b 6>b | 3>b 7>a 5>b 1>b 4>b 9>b 2>b 8>b 6>c",
		"CBF/realloc-cancel/MaxMin":      "2>b 3>b 5>b 8>b 6>c 7>a 1>a 4>a 9>a | 2>b 3>b 5>b 8>b 6>b 7>a 1>a 4>c 9>c",
		"CBF/realloc-cancel/MaxGain":     "2>b 3>b 4>a 8>b 6>c 7>a 1>a 9>b 5>b | 6>b 9>a 7>b 1>b 4>b 2>b 3>b 5>b 8>b",
		"CBF/realloc-cancel/MaxRelGain":  "2>b 4>a 8>b 3>b 6>c 7>a 5>b 1>a 9>a | 6>b 7>a 1>b 4>b 9>b 2>b 3>b 5>b 8>b",
		"CBF/realloc-cancel/Sufferage":   "3>b 5>b 7>a 2>b 8>b 6>c 1>a 4>a 9>a | 3>b 5>b 2>b 8>b 7>a 6>b 1>a 4>c 9>c",
	}
	for _, policy := range []batch.Policy{batch.FCFS, batch.CBF} {
		for _, alg := range []Algorithm{WithoutCancellation, WithCancellation} {
			for _, h := range Heuristics() {
				key := fmt.Sprintf("%v/%v/%s", policy, alg, h.Name())
				got := sweepSequence(t, sweepFixture(t, policy, nil), alg, h, nil, 60, 700)
				if w, ok := want[key]; !ok || got != w {
					t.Errorf("%s:\n got  %q\n want %q", key, got, w)
				}
			}
		}
	}
}

// TestSweepCapacityWindowAtPassInstant opens capacity windows exactly at
// the first reallocation instant: an announced maintenance on "b", which
// keeps b's blocker waiting, and an unannounced outage on "c" that is
// revealed inside the pass, after every cluster was snapshotted and before
// the first pick. c's column then answers for the plan the reveal replaced
// until a placement or move on c refreshes it.
func TestSweepCapacityWindowAtPassInstant(t *testing.T) {
	capacity := map[string][]platform.CapacityEvent{
		"b": {{Start: 60, End: 1500, Cores: 4, Kind: platform.Maintenance}},
		"c": {{Start: 60, End: 3000, Cores: 4, Kind: platform.Outage}},
	}
	want := map[string]string{
		"FCFS/realloc/Mct":               "101>b 7>c 1>a 2>b 4>c 3>a 8>c 5>b 6>b 9>a | 101>b 1>a 2>b 4>a 3>a 8>c 5>b 6>b 9>a",
		"FCFS/realloc/MinMin":            "1>a 7>c 101>b 4>c 5>b 9>b 6>b 3>b 8>c 2>a | 1>a 101>b 5>b 9>b 6>b 4>a 3>b 8>c 2>a",
		"FCFS/realloc/MaxMin":            "3>b 2>a 6>b 8>c 5>b 4>c 9>a 101>b 7>c 1>a | 2>a 8>c 3>b 4>a 9>a 6>b 5>b 101>b 1>a",
		"FCFS/realloc/MaxGain":           "9>c 3>b 8>c 6>b 2>a 4>b 5>b 7>c 101>b 1>a | 9>a 3>b 2>a 4>b 8>c 6>b 5>b 1>a 101>b",
		"FCFS/realloc/MaxRelGain":        "9>c 2>b 5>b 3>a 8>c 6>b 101>b 4>b 7>c 1>a | 9>a 3>a 8>c 5>b 2>b 6>b 101>b 4>b 1>a",
		"FCFS/realloc/Sufferage":         "101>b 5>b 7>c 1>a 6>b 9>c 4>b 3>b 2>a 8>c | 1>a 101>b 5>b 2>a 4>b 9>a 6>b 8>c 3>b",
		"FCFS/realloc-cancel/Mct":        "101>b 7>a 1>a 2>c 4>a 3>b 8>b 5>a 6>b 9>a | 101>b 7>a 1>a 2>b 4>c 3>a 8>b 5>b 6>b 9>c",
		"FCFS/realloc-cancel/MinMin":     "7>b 1>b 4>a 9>b 2>b 3>b 5>b 8>c 6>b 101>b | 7>b 1>b 4>a 9>b 3>b 5>b 2>b 8>b 6>b 101>a",
		"FCFS/realloc-cancel/MaxMin":     "101>b 3>b 5>b 2>c 8>b 6>b 7>a 1>a 4>a 9>a | 101>b 2>b 3>a 5>b 8>c 6>b 7>a 1>a 4>a 9>a",
		"FCFS/realloc-cancel/MaxGain":    "2>b 3>b 4>a 6>c 8>b 7>a 1>a 9>b 5>b 101>b | 6>b 9>a 7>a 1>b 4>b 3>b 5>b 2>b 101>b 8>c",
		"FCFS/realloc-cancel/MaxRelGain": "2>b 7>a 3>b 4>a 1>c 8>b 5>b 101>b 6>c 9>a | 6>b 1>a 7>a 4>b 9>b 3>b 5>b 101>b 2>c 8>b",
		"FCFS/realloc-cancel/Sufferage":  "101>b 2>c 7>a 1>a 4>a 8>b 6>b 9>a 3>a 5>b | 2>b 101>b 8>b 6>b 7>a 3>a 1>c 4>c 9>c 5>b",
		"CBF/realloc/Mct":                "101>b 7>c 1>a 2>b 4>b 3>a 8>b 5>b 6>b 9>b | 101>b 1>a 2>b 4>b 3>a 8>b 5>b 6>b 9>b",
		"CBF/realloc/MinMin":             "4>b 1>a 7>c 6>b 9>a 101>b 5>b 3>b 8>c 2>b | 4>b 1>a 6>b 9>a 101>b 5>b 3>b 2>b 8>b",
		"CBF/realloc/MaxMin":             "2>b 8>b 3>a 5>b 101>b 6>b 7>c 1>b 9>a 4>b | 2>b 8>b 3>a 5>b 101>b 6>b 9>a 1>b 4>b",
		"CBF/realloc/MaxGain":            "3>b 9>b 2>b 7>c 8>c 5>b 4>b 101>b 1>a 6>b | 8>b 3>a 1>a 2>b 6>b 4>b 9>b 5>b 101>b",
		"CBF/realloc/MaxRelGain":         "3>b 9>b 2>b 7>c 8>c 5>b 101>b 4>b 6>b 1>a | 8>b 3>a 1>a 5>b 2>b 6>b 101>b 4>b 9>b",
		"CBF/realloc/Sufferage":          "101>b 6>b 1>a 5>b 3>b 4>b 9>b 2>b 8>c 7>c | 6>b 1>a 101>b 4>b 9>b 5>b 2>b 3>b 8>b",
		"CBF/realloc-cancel/Mct":         "101>b 7>b 1>b 2>b 4>a 3>b 8>c 5>b 6>b 9>a | 101>b 7>b 1>b 2>b 4>a 3>a 8>b 5>b 6>c 9>b",
		"CBF/realloc-cancel/MinMin":      "7>b 1>b 4>a 9>b 2>b 3>b 5>b 8>c 6>b 101>b | 7>b 1>b 4>a 9>b 3>b 5>b 2>b 8>b 6>b 101>a",
		"CBF/realloc-cancel/MaxMin":      "101>b 3>b 5>b 2>b 8>c 6>b 7>a 1>a 4>b 9>b | 101>b 3>b 5>b 2>b 8>b 6>b 7>a 1>a 4>c 9>a",
		"CBF/realloc-cancel/MaxGain":     "2>b 3>b 7>a 6>c 8>b 1>a 9>b 4>b 5>b 101>b | 6>b 4>a 7>a 1>b 9>b 3>b 5>b 2>b 101>b 8>b",
		"CBF/realloc-cancel/MaxRelGain":  "2>b 7>a 3>b 6>c 8>b 1>a 9>b 4>b 5>b 101>b | 6>b 4>a 7>a 1>b 9>b 3>b 5>b 101>b 2>c 8>b",
		"CBF/realloc-cancel/Sufferage":   "101>b 2>b 8>c 6>b 7>a 3>a 5>b 1>a 4>b 9>b | 2>b 101>b 8>b 6>b 7>a 3>a 5>b 1>a 4>c 9>a",
	}
	for _, policy := range []batch.Policy{batch.FCFS, batch.CBF} {
		for _, alg := range []Algorithm{WithoutCancellation, WithCancellation} {
			for _, h := range Heuristics() {
				key := fmt.Sprintf("%v/%v/%s", policy, alg, h.Name())
				servers := sweepFixture(t, policy, capacity)
				revealed := false
				reveal := func() {
					if revealed {
						return
					}
					revealed = true
					if _, err := servers[2].Scheduler().Advance(60); err != nil {
						t.Fatal(err)
					}
				}
				got := sweepSequence(t, servers, alg, h, reveal, 60, 700)
				if w, ok := want[key]; !ok || got != w {
					t.Errorf("%s:\n got  %q\n want %q", key, got, w)
				}
			}
		}
	}
}
