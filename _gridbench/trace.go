package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call the benchmark made into a layer: its name, its
// interval in nanoseconds since the tracer started, and the span it ran
// under (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// start opens a span under parent and returns its ID and the function
// that closes it.
func (t *tracer) start(parent int64, name string) (int64, func()) {
	if t == nil {
		return 0, noop
	}
	begin := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: begin, End: begin})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// mark records an instant (a progress line, a streamed result line).
func (t *tracer) mark(parent int64, name string) {
	_, end := t.start(parent, name)
	end()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// summarize returns per-name counts, total time and self time: a span's
// duration minus the part of its interval its child spans cover.
func summarize(spans []span) []spanStat {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*spanStat)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Self += d - time.Duration(covered(children[s.ID], s.Start, s.End))
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var sum int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			sum += curHi - curLo
		}
	}
	for _, v := range s {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return sum
}

// gcWorkers are the runtime's background GC goroutines' entry points.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// classify attributes one CPU sample, given its stack innermost frame
// first, to a layer: "loadgen" for the benchmark's own HTTP client,
// "gc" for the runtime's GC workers, else the package of the innermost
// gridrealloc frame, else "bench" for the benchmark's own code, else
// "runtime".
func classify(stack []string) string {
	for _, f := range stack {
		if strings.Contains(f, "service.(*Client)") {
			return "loadgen"
		}
	}
	for _, f := range stack {
		for _, g := range gcWorkers {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if pkg, ok := gridPackage(f); ok {
			return pkg
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, benchPackage) {
			return "bench"
		}
	}
	return "runtime"
}

// benchPackage prefixes this program's functions when it runs as a test
// binary; as a command they are "main.".
const benchPackage = "gridrealloc/gridbench."

// gridPackage returns the last path element of the gridrealloc package a
// function belongs to ("gridrealloc/internal/batch.(*Scheduler).Advance"
// is "batch"). The benchmark module's own packages do not count.
func gridPackage(fn string) (string, bool) {
	if !strings.HasPrefix(fn, "gridrealloc/") && !strings.HasPrefix(fn, "gridrealloc.") {
		return "", false
	}
	if strings.HasPrefix(fn, benchPackage) {
		return "", false
	}
	// The package path ends at the first '.' after its last '/'; receiver
	// and type-parameter lists may hold further slashes.
	head := fn
	if cut := strings.IndexAny(fn, "(["); cut >= 0 {
		head = fn[:cut]
	}
	slash := strings.LastIndex(head, "/")
	rest := fn[slash+1:]
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		rest = rest[:dot]
	}
	return rest, true
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// layer's share of the sampled CPU time, and the number of samples.
func profileShares(gz []byte) (map[string]float64, int, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64)
	var total float64
	for i, st := range stacks {
		shares[classify(st)] += weights[i]
		total += weights[i]
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, len(stacks), nil
}

// decodeProfile reads the parts of a pprof profile (profile.proto) the
// attribution needs: each sample's stack as function names, innermost
// first, and its weight (the last sample value: CPU nanoseconds).
func decodeProfile(gz []byte) ([][]string, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
		strs      []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUvarints(s.locs, v, b)
				case 2:
					for _, x := range appendUvarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, 0, len(samples))
	weights := make([]float64, 0, len(samples))
	for _, s := range samples {
		var st []string
		for _, l := range s.locs {
			for _, fid := range locFuncs[l] {
				if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
					st = append(st, strs[idx])
				}
			}
		}
		w := 1.0
		if len(s.values) > 0 {
			w = float64(s.values[len(s.values)-1])
		}
		stacks = append(stacks, st)
		weights = append(weights, w)
	}
	return stacks, weights, nil
}

var errProto = errors.New("profile: malformed protobuf")

// walkFields calls fn for every field of one protobuf message: varints
// arrive in v, length-delimited payloads in b. Fixed-width fields are
// skipped.
func walkFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated integer field, packed (b) or not (v).
func appendUvarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
