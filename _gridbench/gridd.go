package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sync"
	"time"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/core"
	"gridrealloc/internal/platform"
	"gridrealloc/internal/scenario"
	"gridrealloc/internal/server"
	"gridrealloc/internal/service"
	"gridrealloc/internal/workload"
)

const (
	griddFraction = 0.01
	// replayIDStride separates the job IDs of successive replays of the
	// trace; replays are also spaced in virtual time so each one starts on
	// drained clusters.
	replayIDStride = 10_000_000
	replayGap      = 30 * 86400
)

// daemon is a gridd served in-process on a loopback port.
type daemon struct {
	svc  *service.Service
	hs   *http.Server
	base string
	done chan error
}

// bootDaemon starts service.New with the default configuration behind
// net/http on 127.0.0.1:0 and waits until /healthz answers "ok".
func bootDaemon(ctx context.Context) (*daemon, error) {
	svc, err := service.New(service.Config{Now: time.Now})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{svc: svc, base: "http://" + ln.Addr().String(), done: make(chan error, 1),
		hs: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}}
	go func() { d.done <- d.hs.Serve(ln) }()
	c := d.client()
	defer c.CloseIdle()
	status, err := c.Healthz(ctx)
	if err == nil && status != "ok" {
		err = fmt.Errorf("healthz: %q", status)
	}
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	return d, nil
}

// client returns a client holding at most one connection.
func (d *daemon) client() *service.Client {
	return &service.Client{Base: d.base, HTTP: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// stop drains the service, shuts the server down and waits for Serve to
// return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	drainErr := d.svc.Drain(ctx)
	if err := d.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return drainErr
}

type opKind uint8

const (
	opEstimate opKind = iota
	opSubmit
	opList
)

// Span names of the client calls and of their in-process replays.
var (
	callNames   = [...]string{"Client.Estimate", "Client.Submit", "Client.List"}
	replayNames = [...]string{"server.Estimate", "server.Submit", "server.List"}
)

// frontalOp is one logged frontal call and the reply it got.
type frontalOp struct {
	kind    opKind
	cluster string
	now     int64
	job     workload.Job
	status  int // 0 for success, else the HTTP status
	// Reply fields: the effective virtual time, the estimate, and for a
	// list a hash of the waiting queue.
	replyNow int64
	ect      int64
	ok       bool
	queue    uint64
}

// hashQueue folds a waiting queue into one value for reply comparison.
func hashQueue(n int, entry func(i int) [11]int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	put(int64(n))
	for i := range n {
		for _, v := range entry(i) {
			put(v)
		}
	}
	return h.Sum64()
}

func wireQueue(w []service.WaitingPayload) uint64 {
	return hashQueue(len(w), func(i int) [11]int64 {
		e := w[i]
		return [11]int64{int64(e.Job.ID), e.Job.Submit, e.Job.Runtime, e.Job.Walltime, int64(e.Job.Procs),
			int64(e.Job.User), e.EnqueuedAt, e.PlannedStart, e.PlannedEnd, int64(e.Reallocations), int64(e.QueuePosition)}
	})
}

func localQueue(w []batch.WaitingJob) uint64 {
	return hashQueue(len(w), func(i int) [11]int64 {
		e := w[i]
		return [11]int64{int64(e.Job.ID), e.Job.Submit, e.Job.Runtime, e.Job.Walltime, int64(e.Job.Procs),
			int64(e.Job.User), e.EnqueuedAt, e.PlannedStart, e.PlannedEnd, int64(e.Reallocations), int64(e.QueuePosition)}
	})
}

func statusOf(err error) int {
	var apiErr *service.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status
	}
	return -1
}

func countErr(t *tally, err error) {
	if statusOf(err) == http.StatusTooManyRequests {
		t.refusal()
	} else {
		t.error()
	}
}

// middleware is the closed-loop frontal tenant: it replays the trace
// through the frontal API, mapping each job by MCT over the wire
// (estimate on every cluster, submit to the earliest completion), and
// lists every cluster once per virtual hour.
type middleware struct {
	c        *service.Client
	clusters []string
	trace    *workload.Trace
	tr       *tracer
	mirror   *mirror
	rtt      *latencyHist
	tally    tally
	wall     time.Duration
}

func (m *middleware) call(ctx context.Context, op frontalOp) (frontalOp, bool) {
	_, end := m.tr.start(0, callNames[op.kind])
	t0 := time.Now()
	var err error
	switch op.kind {
	case opEstimate:
		var r service.EstimateResponse
		r, err = m.c.Estimate(ctx, service.EstimateRequest{Cluster: op.cluster, Now: op.now, Job: payloadOf(op.job)})
		op.replyNow, op.ect, op.ok = r.Now, r.ECT, r.OK
	case opSubmit:
		var r service.SubmitResponse
		r, err = m.c.Submit(ctx, service.SubmitRequest{Cluster: op.cluster, Now: op.now, Job: payloadOf(op.job)})
		op.replyNow = r.Now
	case opList:
		var r service.ListResponse
		r, err = m.c.List(ctx, op.cluster)
		op.replyNow, op.queue = r.Now, wireQueue(r.Waiting)
	}
	m.rtt.add(time.Since(t0))
	end()
	if err != nil {
		op.status = statusOf(err)
		countErr(&m.tally, err)
	} else {
		m.tally.ok()
	}
	if !m.mirror.check(op) {
		m.tally.mismatch()
	}
	return op, err == nil
}

func payloadOf(j workload.Job) service.JobPayload {
	return service.JobPayload{ID: j.ID, Submit: j.Submit, Runtime: j.Runtime, Walltime: j.Walltime, Procs: j.Procs, User: j.User}
}

func (m *middleware) run(ctx context.Context, deadline time.Time) {
	t0 := time.Now()
	defer func() { m.wall = time.Since(t0) }()
	first := m.trace.Jobs[0].Submit
	offset := m.trace.LastSubmit() - first + replayGap
	for r := 0; ; r++ {
		lastHour := int64(-1)
		for _, j := range m.trace.Jobs {
			if !time.Now().Before(deadline) || ctx.Err() != nil {
				return
			}
			j.ID += r * replayIDStride
			j.Submit += int64(r) * offset
			if hour := j.Submit / 3600; hour != lastHour {
				lastHour = hour
				for _, cl := range m.clusters {
					m.call(ctx, frontalOp{kind: opList, cluster: cl})
				}
			}
			best, bestECT := "", int64(0)
			for _, cl := range m.clusters {
				op, ok := m.call(ctx, frontalOp{kind: opEstimate, cluster: cl, now: j.Submit, job: j})
				if ok && op.ok && (best == "" || op.ect < bestECT) {
					best, bestECT = cl, op.ect
				}
			}
			if best != "" {
				m.call(ctx, frontalOp{kind: opSubmit, cluster: best, now: j.Submit, job: j})
			}
		}
	}
}

// mirror applies every frontal call to fresh in-process servers the way
// the frontal handlers do (virtual time clamped forward, then advanced) as
// the call completes, so each reply is checked against the in-process
// answer to the same operation log in constant memory.
type mirror struct {
	servers map[string]*server.Server
	tr      *tracer
	busy    time.Duration
	ops     int
}

func newMirror(tr *tracer) (*mirror, error) {
	m := &mirror{servers: map[string]*server.Server{}, tr: tr}
	for _, spec := range platform.ForScenario("jan", platform.Homogeneous).Clusters {
		s, err := server.New(spec, batch.FCFS)
		if err != nil {
			return nil, err
		}
		m.servers[spec.Name] = s
	}
	return m, nil
}

// check replays op in process and reports whether the daemon's reply
// matches. Failed calls are compared by failure alone.
func (m *mirror) check(op frontalOp) bool {
	_, end := m.tr.start(0, replayNames[op.kind])
	t0 := time.Now()
	s := m.servers[op.cluster]
	got := op
	var err error
	if op.kind == opList {
		got.replyNow = s.Scheduler().Now()
		got.queue = localQueue(s.WaitingJobs())
	} else {
		now := max(op.now, s.Scheduler().Now())
		got.replyNow = now
		if _, err = s.Scheduler().Advance(now); err == nil {
			if op.kind == opEstimate {
				got.ect, got.ok = s.EstimateCompletion(op.job, now)
			} else {
				err = s.Submit(op.job, now, 0)
			}
		}
	}
	m.busy += time.Since(t0)
	m.ops++
	end()
	if err != nil {
		return op.status != 0
	}
	return op.status == 0 && got == op
}

// campaignTenant streams the A/B grid over /v1/campaigns, one campaign
// after another.
type campaignTenant struct {
	c      *service.Client
	grid   []scenario.Config
	tr     *tracer
	times  []float64 // seconds from POST to trailer
	firsts []float64 // seconds from POST to the first line
	lines  int
	// seen counts the lines per configuration index and digest; every
	// campaign streams the same grid, so this stays small.
	seen  map[int]map[string]int
	stats []service.CampaignTrailer
	tally tally
}

func (ct *campaignTenant) run(ctx context.Context, deadline time.Time) {
	for k := 0; k < minUnits || time.Now().Before(deadline); k++ {
		if ctx.Err() != nil {
			return
		}
		id, end := ct.tr.start(0, "Client.Campaign")
		t0 := time.Now()
		first := -1.0
		trailer, err := ct.c.Campaign(ctx, service.CampaignRequest{Scenarios: ct.grid, Workers: 1},
			func(l service.CampaignLine) {
				if first < 0 {
					first = time.Since(t0).Seconds()
				}
				ct.tr.mark(id, "ndjson")
				ct.lines++
				key := l.Digest
				if l.Error != "" {
					key = "error: " + l.Error
				}
				if ct.seen[l.Index] == nil {
					ct.seen[l.Index] = map[string]int{}
				}
				ct.seen[l.Index][key]++
			})
		d := time.Since(t0).Seconds()
		end()
		if err != nil {
			countErr(&ct.tally, err)
			continue
		}
		ct.times = append(ct.times, d)
		ct.firsts = append(ct.firsts, first)
		ct.stats = append(ct.stats, trailer)
	}
}

// runGriddMixed boots a gridd in this process and drives it with two
// tenants on one connection each: the closed-loop middleware replaying the
// jan trace through the frontal API, and a campaign tenant streaming the
// 72-configuration A/B grid. Every frontal reply must equal an in-process
// replay of the same operation log, and every NDJSON line's digest the
// in-process digest of its configuration.
func runGriddMixed(ctx context.Context, w window) (*report, error) {
	rep := newReport(w)
	var d *daemon
	var trace *workload.Trace
	var grid []scenario.Config
	var tracegen []float64
	for i := range setupReps {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
		t0 := time.Now()
		_, end := w.tr.start(0, "workload.Scenario")
		base, err := workload.Scenario("jan", griddFraction, traceSeed)
		end()
		if err != nil {
			return nil, err
		}
		tracegen = append(tracegen, time.Since(t0).Seconds())
		if trace, err = jitter(base, rng(w.seed, 0)); err != nil {
			return nil, err
		}
		grid = abGrid(rng(w.seed, 1))
		_, end = w.tr.start(0, "bootDaemon")
		d, err = bootDaemon(ctx)
		end()
		if err != nil {
			return nil, fmt.Errorf("boot gridd (setup %d): %w", i, err)
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
	}
	rep.layer["workload.tracegen_s"] = median(tracegen)

	var clusters []string
	for _, spec := range platform.ForScenario("jan", platform.Homogeneous).Clusters {
		clusters = append(clusters, spec.Name)
	}
	mir, err := newMirror(w.tr)
	if err != nil {
		return nil, err
	}
	mw := &middleware{c: d.client(), clusters: clusters, trace: trace, tr: w.tr, mirror: mir, rtt: newLatencyHist()}
	ct := &campaignTenant{c: d.client(), grid: grid, tr: w.tr, seen: map[int]map[string]int{}}
	deadline := time.Now().Add(w.budget)
	if err := rep.begin(); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); mw.run(ctx, deadline) }()
	go func() { defer wg.Done(); ct.run(ctx, deadline) }()
	wg.Wait()
	rep.end()

	stats, statsErr := mw.c.Stats(ctx)
	mw.c.CloseIdle()
	ct.c.CloseIdle()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}
	if statsErr != nil {
		return nil, fmt.Errorf("stats: %w", statsErr)
	}

	// Verification, outside the timed window.
	if mw.tally.wrong > 0 {
		rep.printf("frontal: %d of %d replies differ from the in-process replay", mw.tally.wrong, mir.ops)
	}
	want := make([]string, len(grid))
	sim := core.NewSimulator()
	for i, cfg := range grid {
		runCfg, err := scenario.BuildRunConfig(cfg)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(runCfg)
		if err != nil {
			return nil, err
		}
		want[i] = res.Digest()
	}
	bad := 0
	for idx, digests := range ct.seen {
		for digest, n := range digests {
			ok := idx >= 0 && idx < len(want) && digest == want[idx]
			for range n {
				ct.tally.check(ok)
			}
			if !ok {
				bad += n
			}
		}
	}
	if bad > 0 {
		rep.printf("campaigns: %d of %d NDJSON lines differ from the in-process digests", bad, ct.lines)
	}
	rep.tally.add(mw.tally)
	rep.tally.add(ct.tally)

	rep.task = ct.times
	rep.ops = float64(mir.ops)
	rep.opsWall = mw.wall.Seconds()
	opUS := ratio(mir.busy.Seconds()*1e6, float64(mir.ops))
	p50, _ := mw.rtt.percentile(50)
	p99, p99ok := mw.rtt.percentile(99)
	rep.layer["frontal_p50_ms"] = p50 * 1e3
	rep.layer["frontal_p99_ms"] = p99 * 1e3
	rep.layer["frontal_samples"] = float64(mw.rtt.n)
	rep.layer["batch.frontal_op_us"] = opUS
	rep.layer["service.rtt_overhead_us"] = p50*1e6 - opUS
	rep.layer["service.first_line_s"] = median(ct.firsts)
	rep.layer["service.shed"] = float64(stats.Shed)
	rep.layer["service.leases_discarded"] = float64(stats.Leases.Quarantined)
	var queries, hits, rebuilds, reuses, cancels float64
	for _, l := range stats.Clusters {
		queries += float64(l.ECTQueries)
		hits += float64(l.SnapshotHits)
		rebuilds += float64(l.PlanRebuilds)
		reuses += float64(l.PlanReuses)
		cancels += float64(l.Cancellations)
	}
	rep.layer["batch.ect_queries"] = queries
	rep.layer["batch.snapshot_hit_ratio"] = ratio(hits, queries)
	rep.layer["batch.plan_rebuilds"] = rebuilds
	rep.layer["batch.plan_reuse_ratio"] = ratio(reuses, rebuilds+reuses)
	rep.layer["batch.cancellations"] = cancels
	for _, t := range ct.stats {
		rep.layer["runner.failed"] += float64(t.Stats.Failed)
		rep.layer["runner.retries"] += float64(t.Stats.Retries)
	}

	p99note := ""
	if !p99ok {
		p99note = " (fewer than 1000 samples: not reportable)"
	}
	rep.printf("shape: jobs/replay=%d frontal_ops=%d campaigns=%d configs/campaign=%d ndjson_lines=%d connections=2",
		len(trace.Jobs), mir.ops, len(ct.times), len(grid), ct.lines)
	rep.printf("frontal_ops_per_s = %.1f ops/s (%d ops in %.3f s, closed loop, 1 connection)", ratio(rep.ops, rep.opsWall), mir.ops, rep.opsWall)
	rep.printf("frontal_p50_ms = %.4f ms, frontal_p99_ms = %.4f ms (n=%d)%s", p50*1e3, p99*1e3, mw.rtt.n, p99note)
	rep.printf("gridd_campaign_s = %.4f s (median of %d, POST to trailer), first line %.4f s", median(ct.times), len(ct.times), median(ct.firsts))
	rep.printf("in-process replay: %.3f us/op over %d ops", opUS, mir.ops)
	if len(ct.times) == 0 {
		return nil, fmt.Errorf("gridd-mixed: no campaign completed")
	}
	return rep, nil
}
