package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middles for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileOK reports whether p (in (0,100)) of n samples leaves at least
// minBeyond samples above it, the rule for reporting that percentile.
func percentileOK(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// latencyHist counts durations in histWidth buckets up to
// histBuckets×histWidth and keeps longer ones exactly, so its memory does
// not grow with the number of samples.
type latencyHist struct {
	counts []uint32
	over   []time.Duration
	n      int
}

const (
	histWidth   = 100 * time.Nanosecond
	histBuckets = 200_000 // 20 ms
)

func newLatencyHist() *latencyHist { return &latencyHist{counts: make([]uint32, histBuckets)} }

func (h *latencyHist) add(d time.Duration) {
	h.n++
	if i := int(d / histWidth); i < histBuckets {
		h.counts[i]++
		return
	}
	h.over = append(h.over, d)
}

// percentile returns the nearest-rank p-th percentile in seconds, rounded
// up to its bucket's upper edge, and whether it may be reported under
// percentileOK.
func (h *latencyHist) percentile(p float64) (float64, bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := max(int(math.Ceil(p/100*float64(h.n))), 1)
	for i, c := range h.counts {
		if rank -= int(c); rank <= 0 {
			return (time.Duration(i+1) * histWidth).Seconds(), percentileOK(h.n, p)
		}
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return h.over[rank-1].Seconds(), percentileOK(h.n, p)
}

// cpuUtil is process CPU time over the wall time the workers had:
// cpu / (wall × workers).
func cpuUtil(cpu, wall time.Duration, workers int) float64 {
	if wall <= 0 || workers <= 0 {
		return 0
	}
	return cpu.Seconds() / (wall.Seconds() * float64(workers))
}

// tailSeconds is the wall time from the moment the first worker went idle
// for good to the last completion, given every task's completion offset.
// With n tasks on w workers that pull work, the last task is handed out at
// the (n-w)-th completion, so the (n-w+1)-th completion leaves a worker
// with nothing left to take.
func tailSeconds(done []time.Duration, workers int) float64 {
	n := len(done)
	if n == 0 || workers <= 0 {
		return 0
	}
	s := append([]time.Duration(nil), done...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	first := n - workers
	if first < 0 {
		first = 0
	}
	return (s[n-1] - s[first]).Seconds()
}

// tally counts attempted operations and the ones that failed: errors,
// refusals (HTTP 429) and outputs that differ from their reference.
type tally struct {
	attempted, failed int
	refused, wrong    int
}

func (t *tally) ok()      { t.attempted++ }
func (t *tally) error()   { t.attempted++; t.failed++ }
func (t *tally) refusal() { t.attempted++; t.failed++; t.refused++ }

// check counts one checked output, failed when it differs from the
// reference.
func (t *tally) check(match bool) {
	t.attempted++
	if !match {
		t.failed++
		t.wrong++
	}
}

// mismatch turns an already counted success into a wrong output.
func (t *tally) mismatch() { t.failed++; t.wrong++ }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.wrong += o.wrong
}

// frac is failed ÷ attempted.
func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB from
// /proc/self/status, falling back to ru_maxrss.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeStats is a snapshot of the Go runtime counters the benchmark
// reports as the cross-layer "runtime" metrics.
type runtimeStats struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: val(0), allocObjects: val(1), gcCPU: val(2), totalCPU: val(3)}
}

// since returns the counter deltas from an earlier snapshot.
func (r runtimeStats) since(before runtimeStats) runtimeStats {
	return runtimeStats{
		allocBytes:   r.allocBytes - before.allocBytes,
		allocObjects: r.allocObjects - before.allocObjects,
		gcCPU:        r.gcCPU - before.gcCPU,
		totalCPU:     r.totalCPU - before.totalCPU,
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
