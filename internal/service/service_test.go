package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrealloc/internal/core"
	"gridrealloc/internal/leakcheck"
	"gridrealloc/internal/runner"
	"gridrealloc/internal/scenario"
)

// newTestService boots a Service behind httptest with fast test timeouts;
// mut tweaks the config before construction.
func newTestService(t *testing.T, mut func(*Config)) (*Service, *Client) {
	t.Helper()
	cfg := Config{
		Sims:            2,
		MaxCampaigns:    2,
		MaxPending:      2,
		RequestTimeout:  2 * time.Second,
		CampaignTimeout: 30 * time.Second,
		WriteTimeout:    5 * time.Second,
		DrainBudget:     2 * time.Second,
		Now:             time.Now,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

// fastScenarios builds a small, quick campaign.
func fastScenarios(n int) []scenario.Config {
	cfgs := make([]scenario.Config, n)
	for i := range cfgs {
		cfgs[i] = scenario.Config{
			Scenario:      "jan",
			TraceFraction: 0.01,
			Algorithm:     "realloc",
			Heuristic:     "MinMin",
			Seed:          uint64(100 + i),
		}
	}
	return cfgs
}

// inProcessDigests runs the same configs through the runner directly — the
// reference the HTTP stream must match bit for bit.
func inProcessDigests(t *testing.T, cfgs []scenario.Config) []string {
	t.Helper()
	res, _, err := runner.RunCtx(context.Background(), len(cfgs), runner.Options{Workers: 1},
		func(_ context.Context, i int, sim *core.Simulator) (*core.Result, error) {
			runCfg, err := scenario.BuildRunConfig(cfgs[i])
			if err != nil {
				return nil, err
			}
			return sim.Run(runCfg)
		})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = r.Digest()
	}
	return out
}

func TestFrontalSubmitEstimateList(t *testing.T) {
	_, c := newTestService(t, nil)
	ctx := context.Background()
	job := JobPayload{ID: 1, Submit: 0, Runtime: 100, Walltime: 200, Procs: 4}

	est, err := c.Estimate(ctx, EstimateRequest{Cluster: "bordeaux", Now: 0, Job: job})
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	if !est.OK || est.ECT <= 0 {
		t.Fatalf("estimate = %+v", est)
	}

	if _, err := c.Submit(ctx, SubmitRequest{Cluster: "bordeaux", Now: 0, Job: job}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// A job submitted at time 0 on an empty cluster starts immediately, so
	// queue a second one wide enough to wait behind it.
	job2 := JobPayload{ID: 2, Submit: 0, Runtime: 100, Walltime: 200, Procs: 640}
	if _, err := c.Submit(ctx, SubmitRequest{Cluster: "bordeaux", Now: 0, Job: job2}); err != nil {
		t.Fatalf("submit 2: %v", err)
	}

	list, err := c.List(ctx, "bordeaux")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	found := false
	for _, wj := range list.Waiting {
		if wj.Job.ID == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("job 2 not in waiting queue: %+v", list.Waiting)
	}

	cancelResp, err := c.Cancel(ctx, CancelRequest{Cluster: "bordeaux", Now: 1, JobID: 2})
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if cancelResp.Job.ID != 2 {
		t.Fatalf("cancel returned %+v", cancelResp)
	}

	// Unknown cluster is a 404, not a panic or a 500.
	_, err = c.Submit(ctx, SubmitRequest{Cluster: "nope", Job: job})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown cluster err = %v", err)
	}
}

func TestMalformedBodies(t *testing.T) {
	_, c := newTestService(t, func(cfg *Config) { cfg.MaxBodyBytes = 512 })
	httpc := c.httpc()
	for _, path := range []string{"/v1/submit", "/v1/cancel", "/v1/estimate"} {
		post := func(body string) *http.Response {
			t.Helper()
			resp, err := httpc.Post(c.Base+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { resp.Body.Close() })
			return resp
		}

		if resp := post(`{"cluster":`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s truncated JSON: status %d", path, resp.StatusCode)
		}
		if resp := post(`{"cluster":"bordeaux","bogus_field":1}`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s unknown field: status %d", path, resp.StatusCode)
		}
		if resp := post(`{"cluster":"bordeaux"} trailing`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s trailing data: status %d", path, resp.StatusCode)
		}
		big := `{"cluster":"` + strings.Repeat("x", 1024) + `"}`
		if resp := post(big); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d", path, resp.StatusCode)
		}
	}
}

func TestCampaignDigestParity(t *testing.T) {
	_, c := newTestService(t, nil)
	snap := leakcheck.Take()
	cfgs := fastScenarios(4)
	want := inProcessDigests(t, cfgs)

	got := make(map[int]CampaignLine, len(cfgs))
	trailer, err := c.Campaign(context.Background(), CampaignRequest{Scenarios: cfgs, Workers: 2},
		func(line CampaignLine) { got[line.Index] = line })
	if err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.Health != "clean" || trailer.Stats.Completed != int64(len(cfgs)) {
		t.Fatalf("trailer = %+v", trailer)
	}
	for i, w := range want {
		line, ok := got[i]
		if !ok {
			t.Fatalf("no line for scenario %d", i)
		}
		if line.Digest != w {
			t.Fatalf("scenario %d digest %s over HTTP, %s in-process", i, line.Digest, w)
		}
		if line.Error != "" || line.Jobs == 0 || line.Makespan == 0 {
			t.Fatalf("line %d = %+v", i, line)
		}
	}
	// Latency accounting reached the histograms.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Latency.Campaign.Count == 0 {
		t.Fatalf("campaign latency histogram empty: %+v", st.Latency)
	}
	if st.Leases.Quarantined != 0 || st.CampaignsAdmitted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	c.httpc().CloseIdleConnections()
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignFaultPathsAndQuarantine(t *testing.T) {
	s, c := newTestService(t, func(cfg *Config) { cfg.AllowFaultInjection = true })
	snap := leakcheck.Take()
	cfgs := fastScenarios(8)
	req := CampaignRequest{
		Scenarios:     cfgs,
		Workers:       2,
		TaskTimeoutMs: 300,
		MaxRetries:    3,
		FaultSeed:     7,
		Faulted:       4, // one of each kind: panic, transient, slow, poison-reset
	}
	var mu sync.Mutex
	panics, timeouts := 0, 0
	trailer, err := c.Campaign(context.Background(), req, func(line CampaignLine) {
		mu.Lock()
		if line.Panic {
			panics++
		}
		if line.Timeout {
			timeouts++
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.Cancelled {
		t.Fatalf("trailer = %+v", trailer)
	}
	if trailer.Stats.RecoveredPanics != 2 || trailer.Stats.Timeouts != 1 {
		t.Fatalf("stats = %+v", trailer.Stats)
	}
	if panics != 2 || timeouts != 1 {
		t.Fatalf("lines: %d panic, %d timeout", panics, timeouts)
	}
	if trailer.Health != "degraded" {
		t.Fatalf("health = %q", trailer.Health)
	}
	// The two panicked simulators are quarantined across tenants: visible
	// in the lease table, never idle again.
	st := s.Leases().Stats()
	if st.Quarantined != 2 {
		t.Fatalf("lease stats = %+v", st)
	}
	for _, row := range s.Leases().Snapshot() {
		if row.State == LeaseHeld {
			t.Fatalf("lease still held after campaign: %+v", row)
		}
	}
	c.httpc().CloseIdleConnections()
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignFaultInjectionForbidden(t *testing.T) {
	_, c := newTestService(t, nil)
	_, err := c.Campaign(context.Background(),
		CampaignRequest{Scenarios: fastScenarios(1), Faulted: 1}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusForbidden {
		t.Fatalf("err = %v, want 403", err)
	}
}

func TestCampaignLoadShed(t *testing.T) {
	s, c := newTestService(t, func(cfg *Config) {
		cfg.MaxCampaigns = 1
		cfg.MaxPending = 1
		cfg.RequestTimeout = 150 * time.Millisecond
	})
	snap := leakcheck.Take()
	// Occupy the only running slot and the only pending slot directly.
	releaseRunning, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.pending <- struct{}{}

	_, err = c.Campaign(context.Background(), CampaignRequest{Scenarios: fastScenarios(1)}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429", err)
	}
	if apiErr.RetryAfter == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.shed.Load() == 0 {
		t.Fatal("shed counter did not move")
	}

	// Free the pending slot: an arrival now queues, then times out waiting
	// for the running slot — still shed as 429, not hung forever.
	<-s.pending
	_, err = c.Campaign(context.Background(), CampaignRequest{Scenarios: fastScenarios(1)}, nil)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("queued arrival err = %v, want 429 after queue wait timeout", err)
	}

	// Once capacity frees, campaigns run again.
	releaseRunning()
	trailer, err := c.Campaign(context.Background(), CampaignRequest{Scenarios: fastScenarios(1)}, nil)
	if err != nil || !trailer.Done {
		t.Fatalf("after release: trailer=%+v err=%v", trailer, err)
	}
	c.httpc().CloseIdleConnections()
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPanicInHandlerIsIsolated(t *testing.T) {
	s, c := newTestService(t, nil)
	ts := httptest.NewServer(s.wrap(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if s.handlerPanic.Load() != 1 {
		t.Fatalf("handlerPanic = %d", s.handlerPanic.Load())
	}
	// The daemon keeps serving other tenants.
	if status, err := c.Healthz(context.Background()); err != nil || status != "ok" {
		t.Fatalf("healthz after panic: %q, %v", status, err)
	}
}

func TestMidStreamDisconnect(t *testing.T) {
	s, c := newTestService(t, func(cfg *Config) { cfg.AllowFaultInjection = true })
	snap := leakcheck.Take()
	// One slow task (no task timeout) keeps the campaign alive until the
	// client walks away; the disconnect must cancel the campaign, return
	// every lease and leak nothing.
	req := CampaignRequest{Scenarios: fastScenarios(6), Workers: 2, FaultSeed: 3, Faulted: 3}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstLine := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		_, err := c.Campaign(ctx, req, func(CampaignLine) {
			select {
			case firstLine <- struct{}{}:
			default:
			}
		})
		done <- err
	}()
	select {
	case <-firstLine:
	case <-time.After(10 * time.Second):
		t.Fatal("no campaign output within 10s")
	}
	cancel() // client disconnects mid-stream
	if err := <-done; err == nil {
		t.Fatal("client saw a complete stream despite disconnecting")
	}
	// The server side notices, cancels the campaign and returns the leases.
	deadline := time.Now().Add(5 * time.Second)
	for s.Leases().Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leases still outstanding after disconnect: %d", s.Leases().Outstanding())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status, err := c.Healthz(context.Background()); err != nil || status != "ok" {
		t.Fatalf("healthz after disconnect: %q, %v", status, err)
	}
	c.httpc().CloseIdleConnections()
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainWhileStreaming(t *testing.T) {
	s, c := newTestService(t, func(cfg *Config) {
		cfg.AllowFaultInjection = true
		cfg.DrainBudget = 1 * time.Second
	})
	snap := leakcheck.Take()
	// The slow fault blocks its worker until drain cancels the campaign, so
	// the drain exercises the cancel-and-flush path, not the easy one.
	req := CampaignRequest{Scenarios: fastScenarios(6), Workers: 2, FaultSeed: 3, Faulted: 3}
	firstLine := make(chan struct{}, 1)
	type outcome struct {
		trailer CampaignTrailer
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		trailer, err := c.Campaign(context.Background(), req, func(CampaignLine) {
			select {
			case firstLine <- struct{}{}:
			default:
			}
		})
		done <- outcome{trailer, err}
	}()
	select {
	case <-firstLine:
	case <-time.After(10 * time.Second):
		t.Fatal("no campaign output within 10s")
	}

	drainErr := s.Drain(context.Background())
	if drainErr == nil {
		t.Fatal("drain reported clean although it had to cancel a campaign")
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("streaming client got error %v, want flushed partial results + trailer", out.err)
	}
	if !out.trailer.Done || !out.trailer.Cancelled || !out.trailer.Draining {
		t.Fatalf("trailer = %+v", out.trailer)
	}
	if out.trailer.Stats.Completed == 0 || out.trailer.Stats.Completed == out.trailer.Stats.Tasks {
		t.Fatalf("want partial results, got stats %+v", out.trailer.Stats)
	}

	// After drain: no leases out, everything answers 503.
	if n := s.Leases().Outstanding(); n != 0 {
		t.Fatalf("outstanding leases after drain: %d", n)
	}
	if status, _ := c.Healthz(context.Background()); status != "draining" {
		t.Fatalf("healthz = %q, want draining", status)
	}
	_, err := c.Campaign(context.Background(), CampaignRequest{Scenarios: fastScenarios(1)}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("campaign after drain: %v, want 503", err)
	}
	_, err = c.Submit(context.Background(), SubmitRequest{Cluster: "bordeaux", Job: JobPayload{ID: 9, Procs: 1, Runtime: 1, Walltime: 1}})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %v, want 503", err)
	}
	c.httpc().CloseIdleConnections()
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainCleanWhenIdle(t *testing.T) {
	s, c := newTestService(t, nil)
	trailer, err := c.Campaign(context.Background(), CampaignRequest{Scenarios: fastScenarios(2)}, nil)
	if err != nil || !trailer.Done {
		t.Fatalf("trailer=%+v err=%v", trailer, err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain must be clean: %v", err)
	}
}

func TestCampaignRejectsEmptyAndOversized(t *testing.T) {
	_, c := newTestService(t, func(cfg *Config) { cfg.MaxCampaignScenarios = 3 })
	var apiErr *APIError
	_, err := c.Campaign(context.Background(), CampaignRequest{}, nil)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("empty campaign err = %v", err)
	}
	_, err = c.Campaign(context.Background(), CampaignRequest{Scenarios: fastScenarios(4)}, nil)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("oversized campaign err = %v", err)
	}
}

// TestVirtualTimeNeverRewinds pins the clamp: a request carrying an older
// virtual "now" is served at the scheduler's current time instead of
// corrupting the event order.
func TestVirtualTimeNeverRewinds(t *testing.T) {
	_, c := newTestService(t, nil)
	ctx := context.Background()
	job := JobPayload{ID: 1, Submit: 0, Runtime: 50, Walltime: 100, Procs: 1}
	if _, err := c.Submit(ctx, SubmitRequest{Cluster: "bordeaux", Now: 1000, Job: job}); err != nil {
		t.Fatal(err)
	}
	est, err := c.Estimate(ctx, EstimateRequest{Cluster: "bordeaux", Now: 10, Job: JobPayload{ID: 2, Submit: 0, Runtime: 50, Walltime: 100, Procs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Now < 1000 {
		t.Fatalf("virtual time rewound to %d", est.Now)
	}
}
