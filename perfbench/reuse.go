package main

// The server-reuse workload: no Monte Carlo in the measured phase, only
// the result cache's read side, the digest lookup and the journal.
//
// Every cache hit the server serves becomes a job of its own, and the
// server never forgets a job, so a loop of hits would grow the history
// that every digest lookup scans, by as much as the server is fast. The
// measured phase therefore runs in blocks: each block is the same
// sequence of operations, and before each block the benchmark restores
// the server to the state set-up left (the journal cut back to its
// set-up length, the jobs the hits added deleted, the server restarted
// on it). What an operation sees then depends on its place in the block
// only, never on how many operations came before.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"revft/internal/chaos"
	"revft/internal/exp"
	"revft/internal/server"
)

// subset names a cached-reusable sub-grid of family f's superset: grid
// values a and b (a == b for a one-point grid), laid out as shards.
type subset struct{ f, a, b, shards int }

// serverReuse is the workload.
type serverReuse struct {
	cfg    config
	st     stack
	dir    string
	traced bool
	// supers are the computed superset specs, one per family, and
	// superPts their points by ε, encoded, for the hit check.
	supers   []server.JobSpec
	superPts []map[uint64][]byte
	// history holds the distinct specs of the history; hitSubs the
	// never-submitted ones a block's hits replay, one per hit.
	history []subset
	hitSubs []subset
	orig    [][]byte // first result of each history spec
	origID  []string
	// base is the set-up state each block starts from: the jobs the
	// server holds and the journal's length.
	base        map[string]bool
	baseJournal int64
	// added counts the jobs hits added since the last restore.
	added      int
	hitCount   int
	queueWaits []float64
}

func newServerReuse(cfg config) *serverReuse {
	oracles()
	return &serverReuse{cfg: cfg}
}

func (w *serverReuse) spec(sub subset) server.JobSpec {
	sp := w.supers[sub.f]
	grid := sp.Grid()
	sp.GMin, sp.GMax, sp.Points = grid[sub.a], grid[sub.b], 2
	if sub.a == sub.b {
		sp.Points = 1
	}
	sp.Shards = sub.shards
	return sp
}

// setup computes the superset grids, builds the job history off them
// with direct Server.Submit calls, and restarts the server on its data
// directory, so setup includes journal replay. The history is a fixture:
// it is written through a file system whose fsyncs are no-ops, then
// flushed with one sync(2) before the restart, inside set-up.
func (w *serverReuse) setup(ctx context.Context, dir string) error {
	sz := w.cfg.Size
	w.dir = dir
	if err := w.st.start(dir, false, noSyncFS{chaos.OS}); err != nil {
		return err
	}
	exps := []string{"recovery", "local"}
	for f := 0; f < sz.Supersets; f++ {
		spec := server.JobSpec{
			Experiment: exps[f%len(exps)],
			GMin:       sz.GMin, GMax: sz.GMax, Points: sz.SupersetPoints,
			Trials: sz.JobTrials, Seed: opSeed(w.cfg.Seed, 1<<30+f),
			Engine: exp.EngineLanes256, Shards: runtime.NumCPU(), Workers: 1,
		}
		st, err := w.st.srv.Submit(spec)
		if err == nil {
			st, err = w.st.srv.Wait(ctx, st.ID)
		}
		var data []byte
		if err == nil {
			data, err = w.st.srv.Result(st.ID)
		}
		if err != nil {
			return fmt.Errorf("superset %d: %w", f, err)
		}
		res, err := checkJobResult(spec, data)
		if err != nil {
			return fmt.Errorf("superset %d: %w", f, err)
		}
		pts, err := pointBytes(res)
		if err != nil {
			return err
		}
		w.supers = append(w.supers, spec)
		w.superPts = append(w.superPts, pts)
		w.queueWaits = append(w.queueWaits, queueWaitMS(w.st.srv, st.ID)...)
	}

	var subs []subset
	for f := range w.supers {
		for a := 0; a < sz.SupersetPoints; a++ {
			subs = append(subs, subset{f, a, a, 1})
			for b := a + 1; b < sz.SupersetPoints; b++ {
				subs = append(subs, subset{f, a, b, 1}, subset{f, a, b, 2})
			}
		}
	}
	rng := rand.New(rand.NewPCG(w.cfg.Seed, 0x5eed))
	rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	// One more than the block's hits: the last one primes the hit path.
	if need := sz.HistorySpecs + sz.HitsPerBlock + 1; need > len(subs) {
		return fmt.Errorf("history and hits need %d distinct specs, only %d subsets exist", need, len(subs))
	}
	w.history = subs[:sz.HistorySpecs]
	w.hitSubs = subs[sz.HistorySpecs : sz.HistorySpecs+sz.HitsPerBlock]
	prime := subs[sz.HistorySpecs+sz.HitsPerBlock]

	w.orig = make([][]byte, sz.HistorySpecs)
	w.origID = make([]string, sz.HistorySpecs)
	for j := 0; j < sz.HistoryJobs; j++ {
		k := j % sz.HistorySpecs
		spec := w.spec(w.history[k])
		st, err := w.st.srv.Submit(spec)
		if err != nil {
			return fmt.Errorf("history job %d: %w", j, err)
		}
		if st.State != server.StateDone || st.Cache != server.CacheHit {
			return fmt.Errorf("history job %d: state %s, cache %q; want a hit done at submission", j, st.State, st.Cache)
		}
		if j >= sz.HistorySpecs {
			continue
		}
		data, err := w.st.srv.Result(st.ID)
		if err != nil {
			return err
		}
		if err := w.checkHit(spec, w.history[k].f, data); err != nil {
			return fmt.Errorf("history job %d: %w", j, err)
		}
		w.orig[k], w.origID[k] = data, st.ID
	}

	if err := w.st.stop(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	syscall.Sync()
	if err := w.st.start(dir, false, nil); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if n, want := len(w.st.srv.Jobs()), sz.Supersets+sz.HistoryJobs; n != want {
		return fmt.Errorf("replayed %d jobs, want %d", n, want)
	}
	// Prime the client path once each way, with a hit spec no block uses.
	if _, err := w.hitOp(ctx, -1, prime, nil); err != nil {
		return fmt.Errorf("priming hit: %w", err)
	}
	if _, err := w.repeatOp(ctx, -2, 0, nil); err != nil {
		return fmt.Errorf("priming repeat: %w", err)
	}

	w.base = map[string]bool{}
	for _, st := range w.st.srv.Jobs() {
		w.base[st.ID] = true
	}
	fi, err := os.Stat(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	w.baseJournal, w.added = fi.Size(), 0
	return nil
}

// restore stops the server, returns its data directory to the set-up
// state and starts it again (with the tracing wrappers when w.traced).
// It fails if the hits added anything but their own jobs, or if the
// restarted server's history is not the set-up one; the restore is done
// either way, so one fault fails one operation.
func (w *serverReuse) restore() error {
	var check error
	if w.st.srv != nil {
		if n, want := len(w.st.srv.Jobs()), len(w.base)+w.added; n != want {
			check = fmt.Errorf("restore: %d jobs in history, want %d set-up jobs and %d hits", n, len(w.base), w.added)
		}
	}
	w.added = 0
	if err := w.st.stop(); err != nil {
		return errors.Join(check, fmt.Errorf("restore: %w", err))
	}
	if err := os.Truncate(filepath.Join(w.dir, "journal.jsonl"), w.baseJournal); err != nil {
		return errors.Join(check, fmt.Errorf("restore: %w", err))
	}
	jobs := filepath.Join(w.dir, "jobs")
	ents, err := os.ReadDir(jobs)
	if err != nil {
		return errors.Join(check, fmt.Errorf("restore: %w", err))
	}
	for _, e := range ents {
		if !w.base[e.Name()] {
			if err := os.RemoveAll(filepath.Join(jobs, e.Name())); err != nil {
				return errors.Join(check, fmt.Errorf("restore: %w", err))
			}
		}
	}
	syscall.Sync()
	if err := w.st.start(w.dir, w.traced, nil); err != nil {
		return errors.Join(check, fmt.Errorf("restore: %w", err))
	}
	if n := len(w.st.srv.Jobs()); n != len(w.base) {
		return errors.Join(check, fmt.Errorf("restore: replayed %d jobs, want %d", n, len(w.base)))
	}
	return check
}

// op i is operation i%cycle() of a block: a hit of the block's next hit
// spec on every (RepeatsPerHit+1)-th operation, an exact repeat of a
// history spec otherwise. The first operation of a block restores the
// set-up state if a hit has changed it; that time is not the operation's.
func (w *serverReuse) op(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	if i%w.cycle() == 0 && w.added > 0 {
		if err := w.restore(); err != nil {
			return 0, err
		}
	}
	mix := w.cfg.Size.RepeatsPerHit + 1
	if c := i % mix; c != 0 {
		return w.repeatOp(ctx, i, (i/mix*(mix-1)+c-1)%len(w.history), tr)
	}
	return w.hitOp(ctx, i, w.hitSubs[i%w.cycle()/mix], tr)
}

// hitOp submits sub's spec, which the server serves from a superset
// entry; the entry it stores back for the new digest is then evicted, so
// the store stays at its set-up size.
func (w *serverReuse) hitOp(ctx context.Context, i int, sub subset, tr *tracer) (time.Duration, error) {
	spec := w.spec(sub)
	out, err := w.st.runJob(ctx, i, spec, tr)
	if err != nil {
		return out.lat, err
	}
	w.added++
	if out.st.State != server.StateDone || out.st.Cache != server.CacheHit || out.st.ReusedPoints != spec.Points {
		return out.lat, fmt.Errorf("subset job %s: state %s, cache %q, %d reused points; want a full hit", out.st.ID, out.st.State, out.st.Cache, out.st.ReusedPoints)
	}
	if tr != nil {
		w.hitCount++
	}
	if err := os.Remove(w.st.store.Path(spec.Digest())); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return out.lat, fmt.Errorf("evict: %w", err)
	}
	return out.lat, w.checkHit(spec, sub.f, out.data)
}

// repeatOp resubmits history spec k, which the client adopts by digest.
func (w *serverReuse) repeatOp(ctx context.Context, i, k int, tr *tracer) (time.Duration, error) {
	out, err := w.st.runJob(ctx, i, w.spec(w.history[k]), tr)
	if err != nil {
		return out.lat, err
	}
	if out.st.ID != w.origID[k] {
		return out.lat, fmt.Errorf("repeat adopted job %s, want the original %s", out.st.ID, w.origID[k])
	}
	return out.lat, checkRepeat(out.data, w.orig[k])
}

// checkHit checks a subset result against its spec and its superset.
func (w *serverReuse) checkHit(spec server.JobSpec, f int, data []byte) error {
	res, err := checkJobResult(spec, data)
	if err != nil {
		return err
	}
	return checkSubset(res, w.superPts[f])
}

func (w *serverReuse) probe(_ context.Context, tr *tracer, m map[string]metric) error {
	return serviceMetrics(tr, &w.st, len(w.base), w.hitCount, w.queueWaits, m)
}

// retrace restores the set-up state on a server with or without the
// tracing wrappers.
func (w *serverReuse) retrace(on bool) error {
	w.traced = on
	return w.restore()
}

// cycle is one block: HitsPerBlock hits, each followed by RepeatsPerHit
// repeats.
func (w *serverReuse) cycle() int { return w.cfg.Size.HitsPerBlock * (w.cfg.Size.RepeatsPerHit + 1) }

func (w *serverReuse) close() error { return w.st.stop() }

// noSyncFS is a chaos.FS whose fsyncs are no-ops, for building set-up
// fixtures; the fixture is flushed once, with sync(2), when it is done.
type noSyncFS struct{ chaos.FS }

func (noSyncFS) SyncDir(string) error { return nil }

func (f noSyncFS) Create(name string) (chaos.File, error) { return noSync(f.FS.Create(name)) }

func (f noSyncFS) OpenAppend(name string) (chaos.File, error) { return noSync(f.FS.OpenAppend(name)) }

func (f noSyncFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	return noSync(f.FS.CreateTemp(dir, pattern))
}

func noSync(h chaos.File, err error) (chaos.File, error) {
	if h == nil {
		return nil, err
	}
	return noSyncFile{h}, err
}

type noSyncFile struct{ chaos.File }

func (noSyncFile) Sync() error { return nil }
