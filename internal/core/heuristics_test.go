package core

import (
	"math"
	"slices"
	"testing"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/server"
	"gridrealloc/internal/workload"
)

func TestHeuristicsListAndNames(t *testing.T) {
	hs := Heuristics()
	if len(hs) != 6 {
		t.Fatalf("expected the six heuristics of the paper, got %d", len(hs))
	}
	want := []string{"Mct", "MinMin", "MaxMin", "MaxGain", "MaxRelGain", "Sufferage"}
	for i, h := range hs {
		if h.Name() != want[i] {
			t.Fatalf("heuristic %d = %q, want %q (paper order)", i, h.Name(), want[i])
		}
	}
	for _, name := range want {
		h, err := HeuristicByName(name)
		if err != nil || h.Name() != name {
			t.Fatalf("HeuristicByName(%q) = %v, %v", name, h, err)
		}
	}
	if _, err := HeuristicByName("Bogus"); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

// TestMCTSelectsSubmissionOrder checks that MCT scores every view alike, so
// a pass handles the candidates in submission order, then by job ID.
func TestMCTSelectsSubmissionOrder(t *testing.T) {
	views := []View{
		{Procs: 1, OriginECT: 900, Estimate: Estimate{BestECT: 100, SecondECT: 800, BestOtherECT: 100}},
		{Procs: 64, OriginECT: 50, Estimate: Estimate{BestECT: NoEstimate, SecondECT: NoEstimate, BestOtherECT: NoEstimate}},
	}
	if a, b := MCT().Score(views[0]), MCT().Score(views[1]); a != b {
		t.Fatalf("MCT scores differ: %v vs %v", a, b)
	}
	s, err := server.New(platform.ClusterSpec{Name: "only", Cores: 1, Speed: 1}, batch.FCFS)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []workload.Job{
		{ID: 9, Submit: 100, Runtime: 10, Walltime: 20, Procs: 1},
		{ID: 3, Submit: 300, Runtime: 10, Walltime: 20, Procs: 1},
		{ID: 4, Submit: 100, Runtime: 10, Walltime: 50, Procs: 1},
		{ID: 1, Submit: 200, Runtime: 10, Walltime: 20, Procs: 1},
	} {
		if err := s.Submit(j, 400, 0); err != nil {
			t.Fatal(err)
		}
	}
	agent, err := NewAgent([]*server.Server{s}, MCTMapping(), ReallocConfig{Algorithm: WithCancellation})
	if err != nil {
		t.Fatal(err)
	}
	var picks []int
	agent.onPick = func(c candidate) { picks = append(picks, c.Job.ID) }
	if _, err := agent.Reallocate(400); err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 9, 1, 3}; !slices.Equal(picks, want) {
		t.Fatalf("MCT picked %v, want %v (submission time, then job ID)", picks, want)
	}
}

func TestMinMinAndMaxMin(t *testing.T) {
	small := View{Estimate: Estimate{BestECT: 100}}
	large := View{Estimate: Estimate{BestECT: 900}}
	if MinMin().Score(small) <= MinMin().Score(large) {
		t.Fatal("MinMin must prefer the smallest best ECT")
	}
	if MaxMin().Score(large) <= MaxMin().Score(small) {
		t.Fatal("MaxMin must prefer the largest best ECT")
	}
	// MaxMin must not prefer a candidate with no estimate at all.
	none := View{Estimate: Estimate{BestECT: NoEstimate}}
	if got := MaxMin().Score(none); got != -math.MaxFloat64 {
		t.Fatalf("MaxMin score without an estimate = %v, want the lowest float", got)
	}
}

func TestMaxGainAndRelGain(t *testing.T) {
	narrow := View{Procs: 1, OriginECT: 1000, Estimate: Estimate{BestOtherECT: 600, BestOtherCluster: 1}} // gain 400
	wide := View{Procs: 8, OriginECT: 2000, Estimate: Estimate{BestOtherECT: 800, BestOtherCluster: 1}}   // gain 1200, 150 per proc
	if narrow.Gain() != 400 || wide.Gain() != 1200 {
		t.Fatalf("gains = %d, %d; want 400, 1200", narrow.Gain(), wide.Gain())
	}
	if MaxGain().Score(wide) != 1200 || MaxGain().Score(narrow) != 400 {
		t.Fatal("MaxGain must score the absolute gain")
	}
	if MaxRelGain().Score(wide) != 150 || MaxRelGain().Score(narrow) != 400 {
		t.Fatal("MaxRelGain must score the gain per processor")
	}
	// A non-positive processor count counts as one processor.
	zero := narrow
	zero.Procs = 0
	if got := MaxRelGain().Score(zero); got != 400 {
		t.Fatalf("MaxRelGain with 0 procs = %v, want 400", got)
	}
}

func TestGainWithNoOtherCluster(t *testing.T) {
	stuck := View{Procs: 2, OriginECT: 1000, Estimate: Estimate{BestOtherECT: NoEstimate}}
	if g := stuck.Gain(); g != -NoEstimate {
		t.Fatalf("gain without another cluster = %d, want the sentinel minimum", g)
	}
	// Such a candidate must score below any candidate with a real gain, even
	// a negative one.
	late := View{Procs: 1, OriginECT: 700, Estimate: Estimate{BestOtherECT: 5000, BestOtherCluster: 1}}
	for _, h := range []Heuristic{MaxGain(), MaxRelGain()} {
		if h.Score(stuck) >= h.Score(late) {
			t.Fatalf("%s scores the unmovable candidate at or above a movable one", h.Name())
		}
	}
}

func TestSufferage(t *testing.T) {
	mild := View{Estimate: Estimate{BestECT: 100, SecondECT: 150}}
	severe := View{Estimate: Estimate{BestECT: 200, SecondECT: 900}}
	single := View{Estimate: Estimate{BestECT: 300, SecondECT: NoEstimate}}
	if Sufferage().Score(severe) != 700 || Sufferage().Score(mild) != 50 {
		t.Fatal("Sufferage must score the gap between the two best ECTs")
	}
	if s := single.Sufferage(); s != 0 {
		t.Fatalf("sufferage with a single option = %d, want 0", s)
	}
}

// TestSweepTieBreaksBySubmission checks the pass's selection rule on
// hand-scored groups over candidates in gather order (submission time, then
// job ID): the highest score wins, equal scores go to the earlier
// candidate, and the order of the active groups does not matter.
func TestSweepTieBreaksBySubmission(t *testing.T) {
	jobs := []workload.Job{
		{ID: 2, Submit: 100}, {ID: 3, Submit: 100}, {ID: 1, Submit: 300}, {ID: 5, Submit: 500}, {ID: 7, Submit: 900},
	}
	scores := []float64{1, 2, 1, 2, 3}
	want := []int{7, 3, 5, 2, 1}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 4, 0, 3, 1}} {
		sw := &sweep{a: &Agent{}, live: []int{len(jobs)}}
		for i, j := range jobs {
			sw.cands = append(sw.cands, candidate{Job: j})
			sw.next = append(sw.next, -1)
			sw.groups = append(sw.groups, group{head: i, tail: i, score: scores[i]})
		}
		sw.active = append(sw.active, order...)
		var got []int
		for len(sw.active) > 0 {
			c, _ := sw.pick()
			got = append(got, c.Job.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("active order %v: picks %v, want %v", order, got, want)
		}
	}
}

// TestHeuristicsSingleCandidate runs a pass over one waiting job that an
// idle cluster can finish much earlier: every heuristic, under both
// algorithms, must pick it once and move it there.
func TestHeuristicsSingleCandidate(t *testing.T) {
	for _, alg := range []Algorithm{WithoutCancellation, WithCancellation} {
		for _, h := range Heuristics() {
			origin, idle := raceServers(t)
			agent, err := NewAgent([]*server.Server{origin, idle}, MCTMapping(), ReallocConfig{Algorithm: alg, Heuristic: h})
			if err != nil {
				t.Fatal(err)
			}
			var picks []int
			agent.onPick = func(c candidate) { picks = append(picks, c.Job.ID) }
			moves, err := agent.Reallocate(10)
			if err != nil {
				t.Fatal(err)
			}
			if moves != 1 || !slices.Equal(picks, []int{2}) || agent.JobCluster(2) != "idle" {
				t.Fatalf("%v/%s: moves %d, picks %v, job on %q", alg, h.Name(), moves, picks, agent.JobCluster(2))
			}
		}
	}
}
