package core

import (
	"math/rand"
	"testing"

	"gridrealloc/internal/workload"
)

func cand(id int, submit int64, procs int, originECT int64) Candidate {
	return Candidate{
		Job:       workload.Job{ID: id, Submit: submit, Runtime: 100, Walltime: 200, Procs: procs},
		OriginECT: originECT,
	}
}

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

func TestMCTSelectsSubmissionOrder(t *testing.T) {
	cands := []Candidate{
		cand(3, 300, 1, 0),
		cand(1, 100, 1, 0),
		cand(2, 200, 1, 0),
	}
	if got := MCT().Select(cands, make([]Estimate, 3)); got != 1 {
		t.Fatalf("MCT selected index %d, want 1 (earliest submission)", got)
	}
	// Ties on submission time break by job ID.
	cands = []Candidate{cand(9, 100, 1, 0), cand(4, 100, 1, 0)}
	if got := MCT().Select(cands, make([]Estimate, 2)); got != 1 {
		t.Fatalf("MCT tie-break selected %d, want 1 (smaller ID)", got)
	}
}

func TestMinMinAndMaxMin(t *testing.T) {
	cands := []Candidate{cand(1, 10, 1, 0), cand(2, 20, 1, 0), cand(3, 30, 1, 0)}
	ests := []Estimate{
		{BestECT: 500},
		{BestECT: 100},
		{BestECT: 900},
	}
	if got := MinMin().Select(cands, ests); got != 1 {
		t.Fatalf("MinMin selected %d, want 1 (smallest best ECT)", got)
	}
	if got := MaxMin().Select(cands, ests); got != 2 {
		t.Fatalf("MaxMin selected %d, want 2 (largest best ECT)", got)
	}
	// MaxMin must not pick a candidate with no estimate at all.
	ests[2].BestECT = NoEstimate
	if got := MaxMin().Select(cands, ests); got != 0 {
		t.Fatalf("MaxMin selected %d, want 0 when candidate 2 has no estimate", got)
	}
}

func TestMaxGainAndRelGain(t *testing.T) {
	cands := []Candidate{
		cand(1, 10, 1, 1000), // gain 400
		cand(2, 20, 8, 2000), // gain 1200 but 8 procs -> rel 150
		cand(3, 30, 1, 500),  // gain 300
	}
	ests := []Estimate{
		{BestOtherECT: 600, BestOtherCluster: 1},
		{BestOtherECT: 800, BestOtherCluster: 1},
		{BestOtherECT: 200, BestOtherCluster: 1},
	}
	if got := MaxGain().Select(cands, ests); got != 1 {
		t.Fatalf("MaxGain selected %d, want 1 (absolute gain 1200)", got)
	}
	if got := MaxRelGain().Select(cands, ests); got != 0 {
		t.Fatalf("MaxRelGain selected %d, want 0 (gain per processor 400)", got)
	}
}

func TestGainWithNoOtherCluster(t *testing.T) {
	c := cand(1, 10, 2, 1000)
	e := Estimate{BestOtherECT: NoEstimate}
	if g := e.Gain(c); g != -NoEstimate {
		t.Fatalf("gain without another cluster = %d, want the sentinel minimum", g)
	}
	// Such a candidate must lose against any candidate with a real gain.
	cands := []Candidate{c, cand(2, 20, 1, 700)}
	ests := []Estimate{e, {BestOtherECT: 650, BestOtherCluster: 1}}
	if got := MaxGain().Select(cands, ests); got != 1 {
		t.Fatalf("MaxGain selected the unmovable candidate")
	}
}

func TestSufferage(t *testing.T) {
	cands := []Candidate{cand(1, 10, 1, 0), cand(2, 20, 1, 0), cand(3, 30, 1, 0)}
	ests := []Estimate{
		{BestECT: 100, SecondECT: 150}, // sufferage 50
		{BestECT: 200, SecondECT: 900}, // sufferage 700
		{BestECT: 300, SecondECT: NoEstimate},
	}
	if got := Sufferage().Select(cands, ests); got != 1 {
		t.Fatalf("Sufferage selected %d, want 1", got)
	}
	if s := ests[2].Sufferage(); s != 0 {
		t.Fatalf("sufferage with a single option = %d, want 0", s)
	}
}

func TestPickBestTieBreaksBySubmission(t *testing.T) {
	// Equal scores: the earliest-submitted candidate must win regardless of
	// slice order so that reallocation passes are deterministic.
	cands := []Candidate{cand(5, 500, 1, 0), cand(2, 100, 1, 0), cand(3, 300, 1, 0)}
	ests := []Estimate{{BestECT: 100}, {BestECT: 100}, {BestECT: 100}}
	if got := MinMin().Select(cands, ests); got != 1 {
		t.Fatalf("tie-break selected %d, want 1 (earliest submission)", got)
	}
}

func TestHeuristicsSingleCandidate(t *testing.T) {
	cands := []Candidate{cand(1, 10, 4, 900)}
	ests := []Estimate{{BestECT: 500, SecondECT: 600, BestOtherECT: 500, BestOtherCluster: 1}}
	for _, h := range Heuristics() {
		if got := h.Select(cands, ests); got != 0 {
			t.Fatalf("%s selected %d for a single candidate", h.Name(), got)
		}
	}
}

// TestSelectIgnoresCandidateOrder pins the Heuristic contract the sweep's
// O(1) swap removal relies on: every heuristic picks the same job under any
// permutation of (cands, ests). The draws use few distinct values so that
// scores tie often and the (submit, ID) tie-break decides.
func TestSelectIgnoresCandidateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ects := []int64{500, 700, 900, NoEstimate}
	draw := func() int64 { return ects[rng.Intn(len(ects))] }
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		cands := make([]Candidate, n)
		ests := make([]Estimate, n)
		for i, id := range rng.Perm(n) {
			cands[i] = cand(id+1, int64(rng.Intn(3)), 1<<rng.Intn(3), 600+int64(rng.Intn(3))*200)
			ests[i] = Estimate{BestECT: draw(), SecondECT: draw(), BestOtherECT: draw()}
		}
		for _, h := range Heuristics() {
			want := cands[h.Select(cands, ests)].Job.ID
			for p := 0; p < 8; p++ {
				pc := make([]Candidate, n)
				pe := make([]Estimate, n)
				for i, j := range rng.Perm(n) {
					pc[i], pe[i] = cands[j], ests[j]
				}
				if got := pc[h.Select(pc, pe)].Job.ID; got != want {
					t.Fatalf("trial %d: %s picked job %d, after a permutation job %d", trial, h.Name(), want, got)
				}
			}
		}
	}
}
