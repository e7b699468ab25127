package server

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// Per-job observability plane. Every shard of a job runs against its own
// child telemetry.Registry; the sweep runner persists that registry's
// point-boundary snapshot inside the shard checkpoint, so metrics survive
// kill-and-restart bit-consistently with results. jobObs is the in-memory
// side: live per-shard registries, checkpoint-derived baselines, progress
// counters, and the Wilson half-width trajectory that /jobs/{id}/progress
// serves. The merged cross-shard snapshot obeys a conservation invariant:
// once a job is terminal, its trial counters equal the final result's
// trial counts exactly, however many times the process was killed.

// TrajectoryPoint is one completed sweep point's convergence datum, in
// completion order: the global point index, its primary estimate, and the
// 95% Wilson half-width at that point's final trial count.
type TrajectoryPoint struct {
	Point     int     `json:"point"`
	Trials    int     `json:"trials"`
	Rate      float64 `json:"rate"`
	HalfWidth float64 `json:"halfwidth"`
	// RelHalfWidth is HalfWidth/Rate, the quantity adaptive early stopping
	// compares against reltol; 0 when the rate itself is 0.
	RelHalfWidth float64 `json:"rel_halfwidth,omitempty"`
	// Stopped marks a point ended early by the job's StopRule.
	Stopped bool `json:"stopped,omitempty"`
}

// ShardProgress is one shard's live view in a JobProgress.
type ShardProgress struct {
	Shard int `json:"shard"`
	// State is queued | running | done | parked | failed; "pending" for a
	// shard known only from its on-disk checkpoint (not yet scheduled in
	// this process).
	State         string `json:"state"`
	Attempts      int    `json:"attempts,omitempty"`
	PointsTotal   int    `json:"points_total"`
	PointsDone    int    `json:"points_done"`
	ResumedPoints int    `json:"resumed_points,omitempty"`
	TrialsDone    int64  `json:"trials_done"`
	// QueueWaitSeconds is how long the shard sat in the worker queue
	// before a pool worker claimed it (this process).
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	// AvgPointSeconds and EtaSeconds derive from the shard's observed
	// per-point wall-time distribution (including resumed baseline).
	AvgPointSeconds float64 `json:"avg_point_seconds,omitempty"`
	EtaSeconds      float64 `json:"eta_seconds,omitempty"`
	// PointWall is the shard's per-point wall-time histogram
	// (sweep.point_seconds), merged across restarts.
	PointWall *telemetry.HistogramSnapshot `json:"point_wall_seconds,omitempty"`
	// Trajectory is the shard's Wilson half-width trajectory in point
	// completion order.
	Trajectory []TrajectoryPoint `json:"trajectory,omitempty"`
}

// JobProgress is the live progress view served by GET /jobs/{id}/progress.
type JobProgress struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Tenant     string `json:"tenant"`
	Experiment string `json:"experiment"`
	Shards     int    `json:"shards"`
	ShardsDone int    `json:"shards_done"`
	// PointsTotal/PointsDone and TrialsBudget/TrialsDone aggregate the
	// shard rows. TrialsBudget is points × trials (the per-estimate
	// budget); adaptive early stopping can finish under it.
	PointsTotal  int   `json:"points_total"`
	PointsDone   int   `json:"points_done"`
	TrialsBudget int64 `json:"trials_budget"`
	TrialsDone   int64 `json:"trials_done"`
	// EtaSeconds estimates time to completion from observed per-point
	// throughput: the max over unfinished shards (shards run in
	// parallel). 0 when the job is terminal or no throughput is observed
	// yet.
	EtaSeconds    float64         `json:"eta_seconds,omitempty"`
	ShardProgress []ShardProgress `json:"shard_progress"`
}

// shardObs is one shard's observability state. All fields are guarded by
// the owning jobObs mutex.
type shardObs struct {
	state         string
	enqueuedAt    time.Time
	queueWait     float64
	attempts      int
	pointsDone    int
	resumedPoints int
	trialsDone    int64
	trajectory    []TrajectoryPoint

	// reg is the current attempt's live registry; base the metrics
	// snapshot loaded from the shard checkpoint at attempt start (covering
	// the points the attempt resumes); final the point-boundary snapshot
	// the attempt's outcome carried when it ended. pointWall keeps final's
	// sweep.point_seconds histogram once release has dropped final.
	reg       *telemetry.Registry
	base      *telemetry.Snapshot
	final     *telemetry.Snapshot
	pointWall *telemetry.HistogramSnapshot
}

// snapshotLocked returns the shard's best merged metrics view: the exact
// final snapshot once the shard ended, otherwise baseline ⊕ live registry
// (which may include an in-flight point's counters — a monitoring view,
// exact again at the next boundary). ok=false when the shard has no data
// in this process.
func (so *shardObs) snapshotLocked() (telemetry.Snapshot, bool) {
	if so.final != nil {
		return *so.final, true
	}
	if so.reg == nil && so.base == nil {
		return telemetry.Snapshot{}, false
	}
	var s telemetry.Snapshot
	if so.base != nil {
		s = so.base.Clone()
	}
	if so.reg != nil {
		if err := s.Merge(so.reg.Snapshot()); err != nil {
			// Shape drift between baseline and live registry; serve the
			// baseline alone rather than nothing.
			return s, so.base != nil
		}
	}
	return s, true
}

// pointWallLocked returns the shard's per-point wall-time histogram, or
// ok=false while it has no observations.
func (so *shardObs) pointWallLocked() (telemetry.HistogramSnapshot, bool) {
	if so.pointWall != nil {
		return *so.pointWall, true
	}
	snap, ok := so.snapshotLocked()
	if !ok {
		return telemetry.HistogramSnapshot{}, false
	}
	h, ok := snap.Histograms["sweep.point_seconds"]
	return h, ok && h.Count > 0
}

// jobObs is a job's observability plane, created at admission. It has its
// own mutex so sweep goroutines can report points without touching the
// server lock; the server lock may be held while acquiring it, never the
// reverse.
type jobObs struct {
	mu     sync.Mutex
	shards []*shardObs
}

func newJobObs(shards int) *jobObs {
	o := &jobObs{shards: make([]*shardObs, shards)}
	for k := range o.shards {
		o.shards[k] = &shardObs{state: "queued"}
	}
	return o
}

func (o *jobObs) enqueued(k int, at time.Time) {
	if o == nil || k < 0 || k >= len(o.shards) {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.shards[k].enqueuedAt = at
}

// claimed records the queue→worker handoff and returns the queue wait.
func (o *jobObs) claimed(k int, now time.Time) float64 {
	if o == nil || k < 0 || k >= len(o.shards) {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	so := o.shards[k]
	so.state = "running"
	if !so.enqueuedAt.IsZero() {
		so.queueWait = now.Sub(so.enqueuedAt).Seconds()
	}
	return so.queueWait
}

// beginAttempt installs a fresh live registry and checkpoint baseline for
// one execution attempt of the shard. Progress counters reset: the
// attempt's resumed points re-report through onPoint, so a retried shard
// never double-counts.
func (o *jobObs) beginAttempt(k int, reg *telemetry.Registry, base *telemetry.Snapshot) {
	if o == nil || k < 0 || k >= len(o.shards) {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	so := o.shards[k]
	so.attempts++
	so.pointsDone = 0
	so.resumedPoints = 0
	so.trialsDone = 0
	so.trajectory = nil
	so.reg = reg
	so.base = base
	so.final = nil
}

// onPoint books one completed (or resumed) point into the shard's
// progress counters and Wilson trajectory. nShards converts the shard-
// local index to the global point index.
func (o *jobObs) onPoint(k, nShards int, p sweep.PointResult, resumed bool) {
	if o == nil || k < 0 || k >= len(o.shards) || p.Partial {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	so := o.shards[k]
	so.pointsDone++
	if resumed {
		so.resumedPoints++
	}
	if len(p.Ests) == 0 {
		return
	}
	e := p.Ests[0]
	so.trialsDone += int64(e.Trials)
	lo, hi := e.Wilson(1.96)
	tp := TrajectoryPoint{
		Point:     k + p.Index*nShards,
		Trials:    e.Trials,
		Rate:      e.Rate(),
		HalfWidth: (hi - lo) / 2,
		Stopped:   p.Stopped,
	}
	if tp.Rate > 0 {
		tp.RelHalfWidth = tp.HalfWidth / tp.Rate
	}
	so.trajectory = append(so.trajectory, tp)
}

// heartbeat returns a progress fingerprint for the shard's live attempt:
// points done plus the total counter and histogram-observation mass of
// its live registry. Engines bump registry counters at every batch
// boundary, so any forward motion — even mid-point — moves the value;
// the watchdog treats *any change* (a fresh attempt resets the registry,
// so the value may also drop) as progress and only a flat reading as a
// stall.
func (o *jobObs) heartbeat(k int) uint64 {
	if o == nil || k < 0 || k >= len(o.shards) {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	so := o.shards[k]
	v := uint64(so.attempts)<<32 + uint64(uint32(so.pointsDone))
	if so.reg != nil {
		snap := so.reg.Snapshot()
		for _, c := range snap.Counters {
			v += uint64(c)
		}
		for _, h := range snap.Histograms {
			v += uint64(h.Count)
		}
	}
	return v
}

// pointsDone returns the shard's completed-point count (current attempt).
func (o *jobObs) pointsDone(k int) int {
	if o == nil || k < 0 || k >= len(o.shards) {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.shards[k].pointsDone
}

// requeued returns a preempted shard to queued state: its next claim
// re-measures queue wait from now, and its attempt registry is dropped
// (the flushed checkpoint carries the authoritative snapshot the next
// attempt resumes from).
func (o *jobObs) requeued(k int, at time.Time) {
	if o == nil || k < 0 || k >= len(o.shards) {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	so := o.shards[k]
	so.state = "queued"
	so.enqueuedAt = at
	so.reg = nil
	so.base = nil
}

// finished records a shard attempt's end state and its exact
// point-boundary metrics snapshot (nil when the runner produced none).
func (o *jobObs) finished(k int, state string, final *telemetry.Snapshot) {
	if o == nil || k < 0 || k >= len(o.shards) {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	so := o.shards[k]
	so.state = state
	if final != nil {
		so.final = final
		so.reg = nil
		so.base = nil
	}
}

// release drops the final snapshot of every shard that ended done,
// keeping its point wall-time histogram for /progress. The snapshot is
// the one the shard's last checkpoint holds (the sweep runner reports a
// shard complete only after that save lands), so JobMetrics reads it
// from disk instead, exactly as for a job replayed terminal. Shards that
// ended failed or parked keep theirs: their checkpoints may lag it.
func (o *jobObs) release() {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, so := range o.shards {
		if so.state != "done" || so.final == nil {
			continue
		}
		if h, ok := so.pointWallLocked(); ok {
			so.pointWall = &h
		}
		so.final = nil
	}
}

// merged folds every shard's current snapshot into one and reports which
// shard indices contributed, so callers can fill the gaps from disk.
func (o *jobObs) merged() (telemetry.Snapshot, map[int]bool, error) {
	covered := make(map[int]bool)
	var agg telemetry.Snapshot
	if o == nil {
		return agg, covered, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var firstErr error
	for k, so := range o.shards {
		snap, ok := so.snapshotLocked()
		if !ok {
			continue
		}
		if err := agg.Merge(snap); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", k, err)
			}
			continue
		}
		covered[k] = true
	}
	return agg, covered, firstErr
}

// JobMetrics returns the job's merged cross-shard telemetry snapshot:
// live shard registries (with their checkpoint baselines) for shards
// running in this process, exact outcome snapshots for shards that ended,
// and on-disk checkpoint snapshots for shards this process never ran
// (e.g. a job already terminal at replay). Unknown IDs return ErrNotFound.
func (s *Server) JobMetrics(id string) (telemetry.Snapshot, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return telemetry.Snapshot{}, ErrNotFound
	}
	merged, covered, merr := j.obs.merged()
	if merr != nil {
		s.cfg.Metrics.Counter("server.obs_merge_errors").Inc()
		s.logf("job %s: metrics merge: %v", id, merr)
	}
	// Disk fallback for shards with no in-process state.
	paths, _ := s.fs.Glob(filepath.Join(s.jobDir(id), "shard-*.json"))
	for _, p := range paths {
		var k int
		if _, err := fmt.Sscanf(filepath.Base(p), "shard-%d.json", &k); err != nil || covered[k] {
			continue
		}
		ck, err := sweep.LoadFS(s.fs, p)
		if err != nil || ck.Metrics == nil {
			continue
		}
		if err := merged.Merge(*ck.Metrics); err != nil {
			s.cfg.Metrics.Counter("server.obs_merge_errors").Inc()
			s.logf("job %s: metrics merge (disk shard %d): %v", id, k, err)
		}
	}
	return merged, nil
}

// MetricsSnapshot is the server-wide aggregate telemetry view served by
// GET /metrics: the server's own registry (admission, queue, journal, and
// lifecycle series) merged with every terminal job's retired shard
// snapshots and the live views of all non-terminal jobs. Within one
// job it is exact at point boundaries; mid-point it may additionally show
// the in-flight point's counters.
func (s *Server) MetricsSnapshot() telemetry.Snapshot {
	s.mu.Lock()
	agg := s.cfg.Metrics.Snapshot()
	retired := s.retired.Clone()
	var live []*jobObs
	for _, id := range s.order {
		if j := s.jobs[id]; !j.state.Terminal() && j.obs != nil {
			live = append(live, j.obs)
		}
	}
	s.mu.Unlock()
	if err := agg.Merge(retired); err != nil {
		s.cfg.Metrics.Counter("server.obs_merge_errors").Inc()
	}
	for _, obs := range live {
		m, _, _ := obs.merged()
		if err := agg.Merge(m); err != nil {
			s.cfg.Metrics.Counter("server.obs_merge_errors").Inc()
		}
	}
	return agg
}

// Progress returns the job's live progress/ETA view. Unknown IDs return
// ErrNotFound.
func (s *Server) Progress(id string) (JobProgress, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return JobProgress{}, ErrNotFound
	}
	jp := JobProgress{
		ID: j.id, State: j.state, Tenant: j.spec.Tenant, Experiment: j.spec.Experiment,
		Shards: j.shards, ShardsDone: j.shardsDone,
		PointsTotal:  j.points,
		TrialsBudget: int64(j.points) * int64(j.spec.Trials),
	}
	obs := j.obs
	shards, points := j.shards, j.points
	s.mu.Unlock()

	if obs == nil {
		// Job known only from the journal (terminal at replay): report
		// the status fields without per-shard live detail.
		return jp, nil
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	for k := 0; k < shards; k++ {
		so := obs.shards[k]
		sp := ShardProgress{
			Shard: k, State: so.state, Attempts: so.attempts,
			PointsTotal:      shardPoints(points, shards, k),
			PointsDone:       so.pointsDone,
			ResumedPoints:    so.resumedPoints,
			TrialsDone:       so.trialsDone,
			QueueWaitSeconds: so.queueWait,
			Trajectory:       so.trajectory,
		}
		if h, ok := so.pointWallLocked(); ok {
			sp.PointWall = &h
			sp.AvgPointSeconds = h.Sum / float64(h.Count)
			if remaining := sp.PointsTotal - sp.PointsDone; remaining > 0 && so.state == "running" {
				sp.EtaSeconds = float64(remaining) * sp.AvgPointSeconds
			}
		}
		jp.PointsDone += sp.PointsDone
		jp.TrialsDone += sp.TrialsDone
		if sp.EtaSeconds > jp.EtaSeconds {
			jp.EtaSeconds = sp.EtaSeconds
		}
		jp.ShardProgress = append(jp.ShardProgress, sp)
	}
	return jp, nil
}
