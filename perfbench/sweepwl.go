package main

// The sweep-accuracy workload: rounds of in-process sweeps, one sweep at a
// time, each run until every point reaches the stated relative Wilson
// half-width or its trial ceiling, checkpointing every point as revft-mc
// -checkpoint does. lanes, sim and sweep do nearly all the work; server,
// client and resultcache do none.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"revft/internal/chaos"
	"revft/internal/exp"
	"revft/internal/stats"
	"revft/internal/sweep"
)

// sizes are the workload dimensions; tests shrink them.
type sizes struct {
	// Sweeps: log-spaced g grid and the adaptive stop rule.
	GMin, GMax  float64
	GridPoints  int
	RelTol      float64
	ZeroScale   float64
	MinTrials   int
	MaxTrials   int
	MaxLevel    int
	AdderBits   int
	LadderScale float64 // multiplies the ladder's probe lengths

	// Service jobs.
	JobPoints      int
	JobTrials      int
	SupersetPoints int
	Supersets      int
	HistorySpecs   int
	HistoryJobs    int
	RepeatsPerHit  int
	HitsPerBlock   int
}

var defaultSizes = sizes{
	GMin: 0.002, GMax: 0.02, GridPoints: 5,
	RelTol: 0.2, ZeroScale: 1e-3, MinTrials: 4096, MaxTrials: 1 << 18,
	MaxLevel: 2, AdderBits: 4, LadderScale: 1,

	JobPoints: 5, JobTrials: 100_000,
	SupersetPoints: 17, Supersets: 4, HistorySpecs: 200, HistoryJobs: 2000, RepeatsPerHit: 3, HitsPerBlock: 50,
}

// sweepKinds are the three sweep drivers, run in this order in every
// operation.
var sweepKinds = []string{"recovery", "adder", "levels"}

// sweepRun is one finished sweep, read back from its final checkpoint.
type sweepRun struct {
	kind   string
	wall   time.Duration
	trials int64
	ck     *sweep.Checkpoint // the final checkpoint
}

// runSweep runs one sweep of kind with seed, checkpointing every point to
// dir, and reads the trial counts back from the final checkpoint. tr, when
// non-nil, records the driver call as an exp span, each point's compute
// as a sim span (ended by the runner's progress line) and each checkpoint
// save as a sweep span over its traced file operations.
func runSweep(ctx context.Context, sz sizes, kind string, seed uint64, dir string, tr *tracer) (*sweepRun, error) {
	path := filepath.Join(dir, kind+".ckpt")
	p := exp.MCParams{Trials: sz.MaxTrials, Workers: runtime.NumCPU(), Seed: seed, Engine: exp.EngineLanes256}
	if kind == "adder" {
		p.Engine = exp.EngineLanes512
	}
	o := exp.SweepOptions{Checkpoint: path, RelTol: sz.RelTol, ZeroScale: sz.ZeroScale, MinTrials: sz.MinTrials, MaxTrials: sz.MaxTrials}
	gs := stats.LogSpace(sz.GMin, sz.GMax, sz.GridPoints)

	espan := tr.open("exp."+kind, "exp")
	if tr != nil {
		st := &sweepTrace{tr: tr, parent: espan, boundary: time.Now()}
		o.Progress = st
		tp := &tap{}
		tp.set(tr)
		o.FS = &traceFS{FS: chaos.OS, tap: tp, layer: "fs", after: st.fsDone}
	}
	t0 := time.Now()
	var err error
	switch kind {
	case "recovery":
		_, err = exp.RecoveryCtx(ctx, gs, p, o)
	case "levels":
		_, err = exp.LevelsCtx(ctx, gs, sz.MaxLevel, p, o)
	case "adder":
		_, err = exp.AdderModuleCtx(ctx, sz.AdderBits, gs, p, o)
	default:
		err = fmt.Errorf("unknown sweep kind %q", kind)
	}
	wall := time.Since(t0)
	tr.close(espan)
	if err != nil {
		return nil, fmt.Errorf("%s sweep: %w", kind, err)
	}
	ck, err := sweep.Load(path)
	if err != nil {
		return nil, fmt.Errorf("%s sweep: final checkpoint: %w", kind, err)
	}
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	run := &sweepRun{kind: kind, wall: wall, ck: ck}
	for _, pr := range ck.Done {
		for _, e := range pr.Ests {
			run.trials += int64(e.Trials)
		}
	}
	return run, checkSweep(sz, run)
}

// sweepTrace turns the sweep runner's observable boundaries into spans: a
// progress line ends a point's compute, and the directory sync that ends
// the following checkpoint save starts the next point.
type sweepTrace struct {
	tr        *tracer
	parent    int
	boundary  time.Time // end of the last checkpoint save, or the sweep start
	pointDone time.Time
}

func (s *sweepTrace) Write(p []byte) (int, error) {
	now := time.Now()
	s.tr.record("sim.point", "sim", s.parent, s.boundary, now)
	s.pointDone = now
	return len(p), nil
}

func (s *sweepTrace) fsDone(op string, end time.Time) {
	if op != "sync_dir" || s.pointDone.IsZero() {
		return
	}
	s.tr.record("sweep.checkpoint", "sweep", s.parent, s.pointDone, end)
	s.boundary = end
}

// sweepAccuracy is the workload.
type sweepAccuracy struct {
	cfg config
	dir string
}

func newSweepAccuracy(cfg config) *sweepAccuracy {
	oracles() // the correctness oracle is the benchmark's, not set-up work
	return &sweepAccuracy{cfg: cfg}
}

// setup creates the checkpoint directory and primes every driver with one
// fixed-seed sweep, so lazy initialisation and heap growth finish before
// timing and set-up does the same work on every run.
func (w *sweepAccuracy) setup(ctx context.Context, dir string) error {
	w.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, kind := range sweepKinds {
		if _, err := runSweep(ctx, w.cfg.Size, kind, ladderSeed, dir, nil); err != nil {
			return err
		}
	}
	return nil
}

// op i is one round: a recovery, an adder and a levels sweep, each with
// a seed of its own, back to back. Its duration is the three sweeps'
// wall time, without the benchmark's checks between them.
func (w *sweepAccuracy) op(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	root := tr.beginOp(i)
	defer tr.close(root)
	var wall time.Duration
	for k, kind := range sweepKinds {
		run, err := runSweep(ctx, w.cfg.Size, kind, opSeed(w.cfg.Seed, len(sweepKinds)*i+k), w.dir, tr)
		if run == nil {
			return wall, err
		}
		wall += run.wall
		if err != nil {
			return wall, err
		}
	}
	return wall, nil
}

// probe measures the service-layer metrics, which this workload never
// touches, on four traced server-fresh jobs.
func (w *sweepAccuracy) probe(ctx context.Context, _ *tracer, m map[string]metric) error {
	return serviceProbe(ctx, w.cfg, filepath.Join(w.dir, "service-probe"), m)
}

// retrace is a no-op: a sweep installs its tracing wrappers per call.
func (w *sweepAccuracy) retrace(bool) error { return nil }

func (w *sweepAccuracy) cycle() int { return 1 }

func (w *sweepAccuracy) close() error { return nil }

// opSeed derives operation i's engine seed from the workload seed.
func opSeed(seed uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(int64(i))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
