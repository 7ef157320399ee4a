package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/server"
	"gridrealloc/internal/workload"
)

// Algorithm selects which reallocation mechanism the agent runs at each
// periodic reallocation event.
type Algorithm int

// The reallocation algorithms compared in the paper, plus the baseline.
const (
	// NoReallocation disables the mechanism; the agent only performs the
	// initial mapping. This is the reference every metric is compared to.
	NoReallocation Algorithm = iota
	// WithoutCancellation is Algorithm 1: consider every waiting job in
	// heuristic order and move it (cancel + resubmit) only when another
	// cluster offers a completion time at least MinGain seconds better.
	WithoutCancellation
	// WithCancellation is Algorithm 2: cancel every waiting job on every
	// cluster, then re-submit them one by one in heuristic order, each to
	// the cluster with the minimum estimated completion time.
	WithCancellation
)

// String returns a short identifier ("none", "realloc", "realloc-cancel").
func (a Algorithm) String() string {
	switch a {
	case WithoutCancellation:
		return "realloc"
	case WithCancellation:
		return "realloc-cancel"
	default:
		return "none"
	}
}

// ParseAlgorithm resolves an algorithm from its string form.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "none", "":
		return NoReallocation, nil
	case "realloc", "no-cancel", "algorithm1":
		return WithoutCancellation, nil
	case "realloc-cancel", "cancel", "algorithm2":
		return WithCancellation, nil
	default:
		return NoReallocation, fmt.Errorf("core: unknown reallocation algorithm %q", s)
	}
}

// DefaultReallocationPeriod is the paper's reallocation frequency: once per
// hour.
const DefaultReallocationPeriod int64 = 3600

// DefaultMinGain is the paper's minimum improvement (one minute) required
// before Algorithm 1 moves a job.
const DefaultMinGain int64 = 60

// ReallocConfig configures the reallocation mechanism of the agent.
type ReallocConfig struct {
	// Algorithm selects the mechanism (NoReallocation disables it).
	Algorithm Algorithm
	// Heuristic orders the candidates; nil defaults to MCT.
	Heuristic Heuristic
	// Period is the interval between reallocation events in seconds;
	// non-positive values default to DefaultReallocationPeriod.
	Period int64
	// MinGain is the minimum completion-time improvement (seconds) required
	// for Algorithm 1 to move a job; non-positive values default to
	// DefaultMinGain. Algorithm 2 ignores it.
	MinGain int64
	// SweepWorkers bounds the worker pool this run's reallocation sweeps fan
	// per-cluster work over; 0 uses GOMAXPROCS and 1 forces the sequential
	// path. Parallel and sequential sweeps are bit-identical, so this is a
	// performance knob and the lever determinism checks flip; being per run,
	// concurrent simulations (the fuzz harness) can use different settings.
	SweepWorkers int
	// SweepThreshold is the minimum work (queued jobs, or (shape, cluster)
	// queries) a sweep stage must hold before it fans out; 0 uses the tuned
	// default of 2048. Tests and the fuzz harness set 1 to force the
	// parallel path onto small fixtures.
	SweepThreshold int
}

// normalized returns the config with defaults applied.
func (c ReallocConfig) normalized() ReallocConfig {
	if c.Heuristic == nil {
		c.Heuristic = MCT()
	}
	if c.Period <= 0 {
		c.Period = DefaultReallocationPeriod
	}
	if c.MinGain <= 0 {
		c.MinGain = DefaultMinGain
	}
	return c
}

// Agent is the meta-scheduler of the paper's architecture: it maps every
// incoming job to a cluster (MappingPolicy) and periodically reallocates
// waiting jobs between clusters (ReallocConfig).
//
//gridlint:resettable
type Agent struct {
	//gridlint:cluster-indexed
	servers  []*server.Server
	mapping  MappingPolicy
	realloc  ReallocConfig
	location map[int]int // jobID -> server index while the job is in the system

	totalReallocations int64
	reallocationEvents int64
	skippedRaces       int64
	skippedSweeps      int64

	// Scratch buffers reused across reallocation passes, so a pass's
	// bookkeeping (candidate gathering, the shape tables, the groups)
	// allocates only when the platform outgrows every previous pass.
	//gridlint:cluster-indexed
	scratchWaiting [][]batch.WaitingJob //gridlint:keep-across-reset capacity only, refilled by every gather
	scratchCands   []candidate          //gridlint:keep-across-reset capacity only, truncated before use
	sw             sweep                //gridlint:keep-across-reset capacity only, rebuilt by newSweep at every pass

	// onPick, when set, sees every pick of a reallocation pass before the
	// pass acts on it: tests record the order and change the platform there.
	onPick func(candidate)
}

// NewAgent builds an agent over the given servers. Mapping defaults to MCT
// when nil.
func NewAgent(servers []*server.Server, mapping MappingPolicy, realloc ReallocConfig) (*Agent, error) {
	a := &Agent{location: make(map[int]int)}
	if err := a.reset(servers, mapping, realloc); err != nil {
		return nil, err
	}
	return a, nil
}

// reset re-points the agent at a server set and configuration, clearing all
// per-run state (locations, counters) while keeping every scratch buffer, so
// the pooled simulator reuses one agent across thousands of scenarios. A
// reset agent behaves exactly like a fresh one.
func (a *Agent) reset(servers []*server.Server, mapping MappingPolicy, realloc ReallocConfig) error {
	if len(servers) == 0 {
		return errors.New("core: agent needs at least one server")
	}
	if mapping == nil {
		mapping = MCTMapping()
	}
	a.servers = servers
	a.mapping = mapping
	a.realloc = realloc.normalized()
	clear(a.location)
	a.totalReallocations = 0
	a.reallocationEvents = 0
	a.skippedRaces = 0
	a.skippedSweeps = 0
	a.onPick = nil
	return nil
}

// Servers returns the servers the agent manages, in platform order.
func (a *Agent) Servers() []*server.Server { return a.servers }

// Realloc returns the normalized reallocation configuration.
func (a *Agent) Realloc() ReallocConfig { return a.realloc }

// TotalReallocations returns the number of migrations performed so far. A
// job migrated several times is counted once per migration, as in the
// paper's "number of reallocations" metric.
func (a *Agent) TotalReallocations() int64 { return a.totalReallocations }

// ReallocationEvents returns the number of periodic reallocation passes run.
func (a *Agent) ReallocationEvents() int64 { return a.reallocationEvents }

// SkippedRaces returns the number of reallocation moves abandoned because
// the job started between the queue snapshot and the cancellation attempt.
// Such a race skips the one candidate instead of aborting the whole sweep.
func (a *Agent) SkippedRaces() int64 { return a.skippedRaces }

// SkippedSweeps returns the number of reallocation passes skipped outright
// because no cluster held a waiting job — a no-op sweep that would otherwise
// still force every cluster's deferred re-plan. Skipped passes are counted in
// ReallocationEvents like executed ones.
func (a *Agent) SkippedSweeps() int64 { return a.skippedSweeps }

// SubmitJob maps the job to a cluster using the mapping policy and submits
// it there. It returns the name of the chosen cluster.
func (a *Agent) SubmitJob(j workload.Job, now int64) (string, error) {
	idx, err := a.mapping.ChooseCluster(j, a.servers, now)
	if err != nil {
		return "", err
	}
	if err := a.servers[idx].Submit(j, now, 0); err != nil {
		return "", fmt.Errorf("core: submitting job %d to %s: %w", j.ID, a.servers[idx].Name(), err)
	}
	a.location[j.ID] = idx
	return a.servers[idx].Name(), nil
}

// JobCluster returns the name of the cluster currently holding the job, or
// "" when the agent does not know the job (never submitted or forgotten).
func (a *Agent) JobCluster(jobID int) string {
	idx, ok := a.location[jobID]
	if !ok {
		return ""
	}
	return a.servers[idx].Name()
}

// Forget drops the agent's location record for a completed job.
func (a *Agent) Forget(jobID int) { delete(a.location, jobID) }

// Reallocate runs one reallocation pass at time now using the configured
// algorithm and heuristic. It returns the number of migrations performed
// during this pass.
func (a *Agent) Reallocate(now int64) (int, error) {
	if a.realloc.Algorithm == NoReallocation {
		return 0, nil
	}
	a.reallocationEvents++
	total := 0
	for _, s := range a.servers {
		total += s.Scheduler().WaitingCount()
	}
	if total == 0 {
		// No waiting jobs anywhere: both algorithms would gather an empty
		// candidate set and return without touching any cluster. Skipping
		// before the gather spares every cluster the queue listing that
		// would force its deferred re-plan — behaviour-neutral, because the
		// lazy plan flush is bit-identical whenever it runs.
		a.skippedSweeps++
		return 0, nil
	}
	switch a.realloc.Algorithm {
	case WithoutCancellation:
		return a.reallocateWithoutCancellation(now, total)
	case WithCancellation:
		return a.reallocateWithCancellation(now, total)
	default:
		return 0, fmt.Errorf("core: unsupported algorithm %v", a.realloc.Algorithm)
	}
}

// gatherCandidates lists the waiting jobs of every cluster in (submission
// time, job ID) order. Listing a queue forces that cluster's deferred
// re-plan, so the listings are fanned over the sweep worker pool when the
// platform is loaded enough to pay for it.
//
// total is the summed WaitingCount the caller (Reallocate) already computed
// for the empty-sweep skip; sharing it keeps the skip decision and the
// gather's sizing in agreement.
func (a *Agent) gatherCandidates(total int) []candidate {
	if cap(a.scratchWaiting) < len(a.servers) {
		a.scratchWaiting = make([][]batch.WaitingJob, len(a.servers))
	}
	perCluster := a.scratchWaiting[:len(a.servers)]
	a.forEachCluster(len(a.servers), total, func(idx int) {
		perCluster[idx] = a.servers[idx].Scheduler().AppendWaitingJobs(perCluster[idx][:0])
	})
	cands := a.scratchCands[:0]
	if cap(cands) < total {
		cands = make([]candidate, 0, total)
	}
	for idx := range a.servers {
		for _, w := range perCluster[idx] {
			cands = append(cands, candidate{Job: w.Job, OriginECT: w.PlannedEnd, Reallocations: w.Reallocations, origin: idx})
		}
	}
	// Deterministic processing order regardless of server iteration:
	// submission time then job ID, a total order since job IDs are unique.
	slices.SortFunc(cands, func(x, y candidate) int {
		return cmp.Or(cmp.Compare(x.Job.Submit, y.Job.Submit), cmp.Compare(x.Job.ID, y.Job.ID))
	})
	a.scratchCands = cands
	return cands
}

// shapeKey identifies a job shape. Candidates with the same processor count
// and reference walltime reserve the same scaled walltime on every cluster,
// so one snapshot gives them the same answer and the sweep queries each
// cluster once per shape.
type shapeKey struct {
	procs    int
	walltime int64
}

// shapeColumn is one cluster's answers over the shapes of a pass.
type shapeColumn struct {
	snap  batch.EstimateSnapshot // the snapshot the answers were read from
	ects  []int64                // per shape; NoEstimate when the shape cannot run here
	walls []int64                // per shape: the scaled walltime on this cluster
}

// answer is one cluster's ECT for a shape.
type answer struct {
	ect     int64
	cluster int
}

// group is a set of candidates the heuristic cannot tell apart, so one view
// and one score stand for all of them. Its members are linked in candidate
// order through sweep.next.
type group struct {
	head, tail    int // first unhandled and last member; head < 0 once all are handled
	shape, origin int
	view          View
	score         float64
}

// sweep is the estimation and selection state of one reallocation pass.
// Candidates are grouped by shape, and each cluster keeps one column of
// ECTs over the shapes: k shapes on m clusters cost k*m slot searches up
// front, and a placement or move re-queries only the touched clusters'
// columns, once per shape that still has candidates. A shape's three lowest
// answers give any of its candidates' Estimate in O(1). Selection runs over
// groups — a (shape, origin) pair under Algorithm 2, one candidate under
// Algorithm 1, where each queued job has its own planned completion — so a
// pick compares one head per group, and only the groups that read a moved
// answer are rescored. The storage lives on the Agent, reused by every pass.
type sweep struct {
	a   *Agent
	now int64
	// cancelled marks an Algorithm 2 pass: no candidate is queued anywhere,
	// so its origin cluster answers like any other.
	cancelled bool
	//gridlint:cluster-indexed
	cols []shapeColumn
	//gridlint:cluster-indexed
	errs []error

	ids     map[shapeKey]int
	jobs    []workload.Job // per shape: its first candidate's job
	live    []int          // per shape: candidates not yet handled
	top     [][3]answer    // per shape: the three lowest answers by (ECT, cluster)
	byShape [][]int        // per shape: its groups
	shapes  []int          // the shapes that may still have candidates
	moved   []int          // the shapes whose answer moved since the last settle

	cands    []candidate    // in (submission time, job ID) order
	next     []int          // per candidate: the next member of its group, or -1
	gids     map[[2]int]int // Algorithm 2: the group of each (shape, origin)
	groups   []group
	active   []int   // the groups with unhandled members
	byOrigin [][]int // per cluster: the Algorithm 1 groups queued there
}

// resized returns s with length n, keeping its contents (including any
// beyond len) and reallocating only when the capacity is short.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// newSweep groups the candidates by shape and into selection groups,
// snapshots every cluster, fills its column and scores every group. The
// per-cluster work — one snapshot plus that cluster's column — is fanned
// over the bounded worker pool on sweeps large enough to pay for it. Each
// worker touches exactly one cluster's scheduler and writes only its own
// column and error slot, so the merged result is bit-identical to the
// sequential sweep regardless of scheduling order; errors are surfaced in
// platform order for the same reason.
func (a *Agent) newSweep(now int64, cands []candidate, cancelled bool) (*sweep, error) {
	sw := &a.sw
	sw.a, sw.now, sw.cancelled, sw.cands = a, now, cancelled, cands
	if sw.ids == nil {
		sw.ids = make(map[shapeKey]int, len(cands))
		sw.gids = make(map[[2]int]int, len(cands))
	}
	clear(sw.ids)
	clear(sw.gids)
	// A pass has at most one shape and one group per candidate; sizing
	// every table for that keeps the appends below from reallocating.
	sw.jobs = slices.Grow(sw.jobs[:0], len(cands))
	sw.live = slices.Grow(sw.live[:0], len(cands))
	sw.groups = slices.Grow(sw.groups[:0], len(cands))
	sw.next = resized(sw.next, len(cands))
	for i, c := range cands {
		k := shapeKey{c.Job.Procs, c.Job.Walltime}
		s, ok := sw.ids[k]
		if !ok {
			s = len(sw.jobs)
			sw.ids[k] = s
			sw.jobs = append(sw.jobs, c.Job)
			sw.live = append(sw.live, 0)
		}
		sw.live[s]++
		sw.next[i] = -1
		if cancelled {
			if g, ok := sw.gids[[2]int{s, c.origin}]; ok {
				sw.next[sw.groups[g].tail], sw.groups[g].tail = i, i
				continue
			}
			sw.gids[[2]int{s, c.origin}] = len(sw.groups)
		}
		sw.groups = append(sw.groups, group{head: i, tail: i, shape: s, origin: c.origin,
			view: View{Procs: c.Job.Procs, Walltime: c.Job.Walltime, OriginECT: c.OriginECT}})
	}

	m := len(a.servers)
	sw.cols = resized(sw.cols, m)
	sw.errs = resized(sw.errs, m)
	a.forEachCluster(m, len(sw.jobs)*m, func(idx int) {
		sw.errs[idx] = sw.fillColumn(idx)
	})
	for idx, err := range sw.errs {
		if err != nil {
			return nil, fmt.Errorf("core: snapshotting %s: %w", a.servers[idx].Name(), err)
		}
	}
	sw.top = resized(sw.top, len(sw.jobs))
	sw.byShape = resized(sw.byShape, len(sw.jobs))
	sw.shapes, sw.moved = sw.shapes[:0], sw.moved[:0]
	for s := range sw.jobs {
		sw.rank(s)
		sw.byShape[s] = sw.byShape[s][:0]
		sw.shapes = append(sw.shapes, s)
	}
	sw.byOrigin = resized(sw.byOrigin, m)
	for idx := range sw.byOrigin {
		sw.byOrigin[idx] = sw.byOrigin[idx][:0]
	}
	sw.active = sw.active[:0]
	for g := range sw.groups {
		grp := &sw.groups[g]
		sw.byShape[grp.shape] = append(sw.byShape[grp.shape], g)
		if !cancelled {
			sw.byOrigin[grp.origin] = append(sw.byOrigin[grp.origin], g)
		}
		sw.active = append(sw.active, g)
		sw.rescore(grp)
	}
	return sw, nil
}

// fillColumn snapshots one cluster and answers every shape on it.
func (sw *sweep) fillColumn(idx int) error {
	sn, err := sw.a.servers[idx].EstimateSnapshot(sw.now)
	if err != nil {
		return err
	}
	col := &sw.cols[idx]
	col.snap = sn
	col.ects = resized(col.ects, len(sw.jobs))
	col.walls = resized(col.walls, len(sw.jobs))
	for s, j := range sw.jobs {
		col.walls[s] = sn.ScaledWalltime(j)
		col.ects[s] = sw.query(sn, idx, s)
	}
	return nil
}

// query answers one (shape, cluster) ECT from the cluster's snapshot,
// returning NoEstimate when the shape can never run there.
func (sw *sweep) query(sn batch.EstimateSnapshot, idx, s int) int64 {
	ect, ok := sn.TryEstimateCompletionScaled(sw.jobs[s].Procs, sw.cols[idx].walls[s])
	if !ok {
		return NoEstimate
	}
	return ect
}

// refreshCluster re-snapshots one cluster whose queue just changed and
// re-queries its column for every shape that still has candidates, noting
// the shapes whose answer moved. When the only change is one job appended
// to the queue (every Algorithm 2 placement, the destination of an
// Algorithm 1 move), the answers the appended reservation cannot have
// moved are kept without a query.
func (sw *sweep) refreshCluster(idx int) error {
	sn, err := sw.a.servers[idx].EstimateSnapshot(sw.now)
	if err != nil {
		return fmt.Errorf("core: snapshotting %s: %w", sw.a.servers[idx].Name(), err)
	}
	col := &sw.cols[idx]
	app, appended := sn.AppendedSince(col.snap)
	col.snap = sn
	kept := sw.shapes[:0]
	for _, s := range sw.shapes {
		if sw.live[s] == 0 {
			continue
		}
		kept = append(kept, s)
		if appended && app.Keeps(sw.jobs[s].Procs, col.walls[s], col.ects[s]) {
			continue
		}
		if ect := sw.query(sn, idx, s); ect != col.ects[s] {
			col.ects[s] = ect
			sw.moved = append(sw.moved, s)
		}
	}
	sw.shapes = kept
	return nil
}

// settle refreshes the clusters a placement (x == y) or a move touched, if
// candidates remain, and rescores the groups of the shapes whose answer
// moved and, while the jobs are still queued (Algorithm 1), those queued on
// x or y, whose planned completion may have moved.
func (sw *sweep) settle(x, y int) error {
	if len(sw.active) == 0 {
		return nil
	}
	if err := sw.refreshCluster(x); err != nil {
		return err
	}
	if y != x {
		if err := sw.refreshCluster(y); err != nil {
			return err
		}
	}
	// A shape both clusters moved is listed twice; rescoring is idempotent.
	for _, s := range sw.moved {
		sw.rank(s)
		sw.rescoreLive(sw.byShape[s], -1)
	}
	sw.moved = sw.moved[:0]
	if !sw.cancelled {
		sw.rescoreLive(sw.byOrigin[x], x)
		sw.rescoreLive(sw.byOrigin[y], y)
	}
	return nil
}

// rescoreLive rescores the groups in gs that still have members. With
// origin >= 0 they are queued there and first re-read their job's planned
// completion.
func (sw *sweep) rescoreLive(gs []int, origin int) {
	for _, g := range gs {
		grp := &sw.groups[g]
		if grp.head < 0 {
			continue
		}
		if origin >= 0 {
			if ect, err := sw.a.servers[origin].CurrentCompletion(sw.cands[grp.head].Job.ID); err == nil {
				grp.view.OriginECT = ect
			}
		}
		sw.rescore(grp)
	}
}

// rank recomputes shape s's three lowest answers over the platform. A
// strict comparison in platform order leaves ties with the lowest cluster
// index.
func (sw *sweep) rank(s int) {
	top := [3]answer{{NoEstimate, -1}, {NoEstimate, -1}, {NoEstimate, -1}}
	for idx := range sw.cols {
		x := answer{sw.cols[idx].ects[s], idx}
		if x.ect >= top[2].ect {
			continue
		}
		i := 2
		for ; i > 0 && x.ect < top[i-1].ect; i-- {
			top[i] = top[i-1]
		}
		top[i] = x
	}
	sw.top[s] = top
}

// rescore rebuilds a group's Estimate and scores it. The origin answers its
// view's OriginECT (a cancelled pass's column answer); the shape's three
// lowest answers follow in (ECT, cluster) order and hold the two lowest
// others. Ties go to the lowest cluster index; NoEstimate never ranks.
func (sw *sweep) rescore(grp *group) {
	if sw.cancelled {
		grp.view.OriginECT = sw.cols[grp.origin].ects[grp.shape]
	}
	est := Estimate{BestECT: NoEstimate, BestCluster: -1, SecondECT: NoEstimate, BestOtherECT: NoEstimate, BestOtherCluster: -1}
	put := func(ect int64, idx int) {
		if ect < est.BestECT || ect == est.BestECT && idx < est.BestCluster {
			est.SecondECT = est.BestECT
			est.BestECT, est.BestCluster = ect, idx
		} else if ect < est.SecondECT {
			est.SecondECT = ect
		}
		if idx != grp.origin && ect < est.BestOtherECT {
			est.BestOtherECT, est.BestOtherCluster = ect, idx
		}
	}
	put(grp.view.OriginECT, grp.origin)
	for _, x := range sw.top[grp.shape] {
		if x.cluster != grp.origin {
			put(x.ect, x.cluster)
		}
	}
	grp.view.Estimate = est
	grp.score = sw.a.realloc.Heuristic.Score(grp.view)
}

// pick hands out the next candidate with its view: the head of the group
// with the highest score, ties going to the earlier candidate (submission
// time, then job ID), which no later member of its group can beat.
func (sw *sweep) pick() (candidate, View) {
	best := 0
	for k := 1; k < len(sw.active); k++ {
		g, b := &sw.groups[sw.active[k]], &sw.groups[sw.active[best]]
		if g.score > b.score || g.score == b.score && g.head < b.head {
			best = k
		}
	}
	grp := &sw.groups[sw.active[best]]
	c, view := sw.cands[grp.head], grp.view
	sw.live[grp.shape]--
	if grp.head = sw.next[grp.head]; grp.head < 0 {
		sw.active = slices.Delete(sw.active, best, best+1)
	}
	if sw.a.onPick != nil {
		sw.a.onPick(c)
	}
	return c, view
}

// reallocateWithoutCancellation implements Algorithm 1 of the paper.
func (a *Agent) reallocateWithoutCancellation(now int64, totalWaiting int) (int, error) {
	cands := a.gatherCandidates(totalWaiting)
	if len(cands) == 0 {
		return 0, nil
	}
	sw, err := a.newSweep(now, cands, false)
	if err != nil {
		return 0, err
	}
	moves := 0
	for len(sw.active) > 0 {
		c, v := sw.pick()
		if v.BestOtherECT == NoEstimate || v.BestOtherECT+a.realloc.MinGain >= v.OriginECT {
			continue
		}
		dest := v.BestOtherCluster
		switch err := a.moveJob(c, dest, now); {
		case err == nil:
			moves++
		case errors.Is(err, batch.ErrJobRunning):
			// The job started between the queue snapshot and the cancel;
			// it is no longer a candidate. Skip it, keep the sweep going.
			a.skippedRaces++
			continue
		default:
			return moves, err
		}
		// A migration changes exactly two clusters' queues: refresh their
		// columns and the groups that read them. When nothing moved, the
		// platform state is unchanged and everything stays valid.
		if err := sw.settle(c.origin, dest); err != nil {
			return moves, err
		}
	}
	return moves, nil
}

// moveJob cancels the job on its origin cluster and submits it to the
// destination cluster, preserving and incrementing its reallocation count.
// A batch.ErrJobRunning from the cancellation is passed through unwrapped in
// meaning (via errors.Is) so the caller can skip the candidate.
func (a *Agent) moveJob(c candidate, destIdx int, now int64) error {
	origin := c.origin
	job, migrated, err := a.servers[origin].Cancel(c.Job.ID, now)
	if err != nil {
		return fmt.Errorf("core: cancelling job %d on %s: %w", c.Job.ID, a.servers[origin].Name(), err)
	}
	if err := a.servers[destIdx].Submit(job, now, migrated+1); err != nil {
		// Try to put the job back where it was rather than losing it; this
		// should never fail because the slot was just freed.
		if backErr := a.servers[origin].Submit(job, now, migrated); backErr != nil {
			return fmt.Errorf("core: job %d lost during reallocation: %v (restore failed: %v)", job.ID, err, backErr)
		}
		return fmt.Errorf("core: resubmitting job %d to %s: %w", job.ID, a.servers[destIdx].Name(), err)
	}
	a.location[job.ID] = destIdx
	a.totalReallocations++
	return nil
}

// reallocateWithCancellation implements Algorithm 2 of the paper: cancel all
// waiting jobs everywhere, then re-place them one at a time in heuristic
// order on the cluster with the minimum estimated completion time.
func (a *Agent) reallocateWithCancellation(now int64, totalWaiting int) (int, error) {
	cands := a.gatherCandidates(totalWaiting)
	// Cancel every waiting job. A job that started since the queue snapshot
	// is skipped (it is no longer reallocatable), not a fatal error.
	kept := cands[:0]
	for _, c := range cands {
		job, migrated, err := a.servers[c.origin].Cancel(c.Job.ID, now)
		if errors.Is(err, batch.ErrJobRunning) {
			a.skippedRaces++
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("core: cancelling job %d on %s: %w", c.Job.ID, a.servers[c.origin].Name(), err)
		}
		c.Job, c.Reallocations = job, migrated
		kept = append(kept, c)
	}
	if len(kept) == 0 {
		return 0, nil
	}
	// Snapshot the emptied queues once; each placement below changes exactly
	// one cluster, whose column is then refreshed.
	sw, err := a.newSweep(now, kept, true)
	if err != nil {
		return 0, err
	}
	moves := 0
	for len(sw.active) > 0 {
		c, v := sw.pick()
		dest := c.origin
		if v.BestECT != NoEstimate {
			dest = v.BestCluster
		}
		migrated := c.Reallocations
		if dest != c.origin {
			migrated++
			moves++
			a.totalReallocations++
		}
		if err := a.servers[dest].Submit(c.Job, now, migrated); err != nil {
			return moves, fmt.Errorf("core: resubmitting job %d to %s: %w", c.Job.ID, a.servers[dest].Name(), err)
		}
		a.location[c.Job.ID] = dest
		if err := sw.settle(dest, dest); err != nil {
			return moves, err
		}
	}
	return moves, nil
}
