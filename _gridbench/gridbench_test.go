package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"gridrealloc/internal/service"
	"gridrealloc/internal/workload"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"innermost gridrealloc frame", []string{
			"runtime.mallocgc",
			"gridrealloc/internal/batch.(*Scheduler).Advance",
			"gridrealloc/internal/core.(*Agent).Reallocate",
			"main.runStorm",
		}, "batch"},
		{"client encoding is loadgen", []string{
			"encoding/json.Marshal",
			"gridrealloc/internal/service.(*Client).postJSON",
			"gridrealloc/internal/service.(*Client).Estimate",
			"main.(*middleware).call",
		}, "loadgen"},
		{"loadgen before gc", []string{
			"runtime.gcAssistAlloc",
			"gridrealloc/internal/service.(*Client).Submit",
			"runtime.gcBgMarkWorker",
		}, "loadgen"},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{"background sweep", []string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{"gc worker over a gridrealloc frame", []string{
			"gridrealloc/internal/sim.(*Engine).Run", "runtime.gcBgMarkWorker",
		}, "gc"},
		{"generic instantiation", []string{
			"gridrealloc/internal/runner.StreamCtx[go.shape.*gridrealloc/internal/core.Result].func2",
			"runtime.goexit",
		}, "runner"},
		{"closure in a method", []string{
			"gridrealloc/internal/service.(*Service).handleCampaign.func3",
		}, "service"},
		{"root package", []string{"gridrealloc.RunScenario"}, "gridrealloc"},
		{"benchmark code", []string{"sort.Slice", "main.median", "main.run"}, "bench"},
		{"scheduler idle", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{"http serving outside handlers", []string{"net/http.(*conn).readRequest", "net/http.(*conn).serve"}, "runtime"},
		{"empty stack", nil, "runtime"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {100, 90, true}, {99, 90, false},
		{20, 50, true}, {19, 50, false}, {0, 50, false},
	} {
		if got := percentileOK(c.n, c.p); got != c.want {
			t.Errorf("percentileOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	h := newLatencyHist()
	for i := 1000; i >= 1; i-- {
		h.add(time.Duration(i) * time.Microsecond)
	}
	near := func(got float64, want time.Duration) bool {
		return math.Abs(got-want.Seconds()) <= 1.5*histWidth.Seconds()
	}
	if v, ok := h.percentile(99); !near(v, 990*time.Microsecond) || !ok {
		t.Errorf("p99 of 1..1000us = %v (ok=%v), want 990us ok", v, ok)
	}
	if v, ok := h.percentile(50); !near(v, 500*time.Microsecond) || !ok {
		t.Errorf("p50 of 1..1000us = %v (ok=%v), want 500us ok", v, ok)
	}
	// Samples past the buckets are kept exactly.
	for i := range 20 {
		h.add(time.Second + time.Duration(i)*time.Millisecond)
	}
	if v, _ := h.percentile(100); v != (time.Second + 19*time.Millisecond).Seconds() {
		t.Errorf("max = %v, want 1.019s", v)
	}
	small := newLatencyHist()
	for i := range 500 {
		small.add(time.Duration(i) * time.Microsecond)
	}
	if v, ok := small.percentile(99); ok {
		t.Errorf("p99 of 500 samples reported as valid (%v)", v)
	}
	if _, ok := newLatencyHist().percentile(50); ok {
		t.Error("percentile of no samples reported as valid")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

func TestRunnerMetrics(t *testing.T) {
	if u := cpuUtil(time.Second, time.Second, 2); u != 0.5 {
		t.Errorf("cpuUtil(1s cpu, 1s wall, 2 workers) = %v, want 0.5", u)
	}
	if u := cpuUtil(3*time.Second, 2*time.Second, 2); u != 0.75 {
		t.Errorf("cpuUtil = %v, want 0.75", u)
	}
	if u := cpuUtil(time.Second, 0, 2); u != 0 {
		t.Errorf("cpuUtil with no wall time = %v, want 0", u)
	}
	s := time.Second
	// Six tasks on two workers: the fifth completion (at 7s) leaves a
	// worker with nothing to take; the last completes at 10s.
	done := []time.Duration{10 * s, 1 * s, 2 * s, 4 * s, 5 * s, 7 * s}
	if tail := tailSeconds(done, 2); tail != 3 {
		t.Errorf("tail = %v, want 3", tail)
	}
	if tail := tailSeconds(done, 1); tail != 0 {
		t.Errorf("tail with one worker = %v, want 0", tail)
	}
	if tail := tailSeconds([]time.Duration{1 * s, 3 * s}, 4); tail != 2 {
		t.Errorf("tail with fewer tasks than workers = %v, want 2", tail)
	}
	if tail := tailSeconds(nil, 2); tail != 0 {
		t.Errorf("tail of nothing = %v", tail)
	}
}

func TestFailedFrac(t *testing.T) {
	var tl tally
	for range 7 {
		tl.ok()
	}
	countErr(&tl, &service.APIError{Status: 429, Message: "at capacity"})
	countErr(&tl, &service.APIError{Status: 500, Message: "boom"})
	tl.check(true)
	tl.check(false) // a digest mismatch
	if tl.attempted != 11 || tl.failed != 3 || tl.refused != 1 || tl.wrong != 1 {
		t.Fatalf("tally = %+v, want 11 attempted, 3 failed, 1 refused, 1 wrong", tl)
	}
	if f := tl.frac(); math.Abs(f-3.0/11) > 1e-12 {
		t.Errorf("failed_frac = %v, want 3/11", f)
	}
	tl.mismatch() // a success whose reply later differs from the reference
	if tl.attempted != 11 || tl.failed != 4 || tl.wrong != 2 {
		t.Errorf("after mismatch tally = %+v", tl)
	}
	var other tally
	other.refusal()
	tl.add(other)
	if tl.attempted != 12 || tl.refused != 2 {
		t.Errorf("after add tally = %+v", tl)
	}
	if (tally{}).frac() != 0 {
		t.Error("empty tally frac != 0")
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]spanStat{}
	for _, st := range summarize(spans) {
		got[st.Name] = st
	}
	if r := got["root"]; r.Count != 1 || r.Total != 100 || r.Self != 100-40-10 {
		t.Errorf("root = %+v, want total 100 self 50", r)
	}
	if c := got["child"]; c.Count != 3 || c.Total != 80 || c.Self != 80 {
		t.Errorf("child = %+v, want 3 spans, total 80, self 80", c)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id, end := tr.start(0, "x")
	end()
	tr.mark(id, "y")
	if id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func spin(d time.Duration) float64 {
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 || len(stacks) != len(weights) {
		t.Fatalf("decoded %d stacks, %d weights", len(stacks), len(weights))
	}
	found := false
	for _, st := range stacks {
		for _, f := range st {
			if strings.HasSuffix(f, ".spin") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample under spin in %d stacks", len(stacks))
	}
	shares, n, err := profileShares(buf.Bytes())
	if err != nil || n != len(stacks) {
		t.Fatalf("profileShares: n=%d err=%v", n, err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || shares["bench"] < 0.5 {
		t.Errorf("shares = %v, want them to sum to 1 with most under bench", shares)
	}
	if _, _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
}

func TestJitter(t *testing.T) {
	base, err := workload.Scenario("jan", 0.01, traceSeed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := jitter(base, rng(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := jitter(base, rng(7, 3))
	c, _ := jitter(base, rng(8, 3))
	if len(a.Jobs) != len(base.Jobs) {
		t.Fatalf("jitter changed the job count: %d vs %d", len(a.Jobs), len(base.Jobs))
	}
	byID := map[int]int64{}
	for _, j := range base.Jobs {
		byID[j.ID] = j.Submit
	}
	same, differ := true, false
	for i, j := range a.Jobs {
		if d := j.Submit - byID[j.ID]; j.Submit < 0 || d > jitterSeconds || d < -jitterSeconds {
			t.Fatalf("job %d moved by %d s", j.ID, d)
		}
		same = same && b.Jobs[i] == j
		differ = differ || c.Jobs[i] != j
	}
	if !same || !differ {
		t.Errorf("same seed same trace = %v, other seed differs = %v", same, differ)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i := range min(len(b.Workloads), len(workloads)) {
		if b.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, b.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(kind string, js []struct{ Name, Unit string }, defs []metricDef) {
		if len(js) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(js), len(defs))
			return
		}
		for i, d := range defs {
			if js[i].Name != d.name || js[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, js[i].Name, js[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, layers)
}
