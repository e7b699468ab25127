package main

// The service workloads. Both drive one in-process sweep service: a
// server.Server with its result cache on, its Handler served on a loopback
// listener, and one client.Client with its defaults, which is what
// revft-mc -server uses. Every operation is a closed-loop Client.Run.
//
//   - server-fresh submits a new small spec each time (a unique seed, so
//     every job is a cache miss): the job lifecycle, the cache's write side
//     and the client's 300 ms status poll.
//   - server-reuse first builds a large job history off a few computed
//     superset grids and restarts the server on it; it then loops over
//     subset grids served as cache hits and exact repeats adopted by
//     digest: the cache's read side and the digest lookup, no Monte Carlo.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"revft/internal/chaos"
	"revft/internal/client"
	"revft/internal/exp"
	"revft/internal/resultcache"
	"revft/internal/server"
	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// stack is one in-process sweep service.
type stack struct {
	srv   *server.Server
	store *resultcache.Store
	hs    *http.Server
	cl    *client.Client
	// tap is set while a phase is traced; the file system, handler and
	// transport wrappers are installed only for the traced phase.
	tap    *tap
	served chan error
	// replay is how long server.New took, journal replay included.
	replay time.Duration
	// slackMS collects, per traced job, the client's Wait return minus
	// the job's done time.
	slackMS []float64
}

// drivers registers the shardable sweeps under their experiment names,
// as cmd/revft-server does.
func drivers() map[string]server.Driver {
	mk := func(name string) server.Driver {
		return func(spec server.JobSpec, grid []float64) (sweep.PointFunc, int, error) {
			if !exp.ValidEngine(spec.Engine) {
				return nil, 0, fmt.Errorf("unknown engine %q", spec.Engine)
			}
			p := exp.MCParams{Trials: spec.Trials, Workers: spec.Workers, Seed: spec.Seed, Engine: spec.Engine}
			return exp.ShardableSweep(name, grid, spec.MaxLevel, spec.Bits, p)
		}
	}
	out := make(map[string]server.Driver)
	for _, name := range []string{"recovery", "levels", "local", "adder"} {
		out[name] = mk(name)
	}
	return out
}

// start builds the server on dir (replaying its journal, if any) and
// serves it on a loopback listener. traced installs the wrappers; base,
// when non-nil, is the file system under them instead of chaos.OS.
func (s *stack) start(dir string, traced bool, base chaos.FS) error {
	reg := telemetry.New()
	if base == nil {
		base = chaos.OS
	}
	fsys, jfs, cfs := base, base, base
	if traced {
		s.tap = &tap{}
		fsys = &traceFS{FS: base, tap: s.tap, layer: "fs"}
		jfs = &traceFS{FS: base, tap: s.tap, layer: "journal"}
		cfs = &traceFS{FS: base, tap: s.tap, layer: "resultcache"}
	}
	s.store = &resultcache.Store{Dir: filepath.Join(dir, "cache"), FS: cfs, Metrics: reg}
	t0 := time.Now()
	srv, err := server.New(server.Config{
		DataDir:     dir,
		Drivers:     drivers(),
		PoolWorkers: runtime.NumCPU(),
		StallBudget: 2 * time.Minute,
		FS:          fsys,
		JournalFS:   jfs,
		Metrics:     reg,
		Cache:       s.store,
	})
	if err != nil {
		return fmt.Errorf("server.New: %w", err)
	}
	s.replay = time.Since(t0)
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return err
	}
	var h http.Handler = srv.Handler()
	s.cl = &client.Client{BaseURL: "http://" + ln.Addr().String()}
	if traced {
		h = &traceHandler{next: h, tap: s.tap}
		s.cl.HTTP = &http.Client{Timeout: 30 * time.Second, Transport: &traceTransport{base: http.DefaultTransport, tap: s.tap}}
	}
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return nil
}

// stop shuts the listener and drains the server.
func (s *stack) stop() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.srv.Drain(ctx))
	s.srv = nil
	return err
}

// jobOutcome is one client round trip.
type jobOutcome struct {
	st   server.JobStatus
	data []byte
	lat  time.Duration
}

// runJob is one closed-loop Client.Run. Traced, it makes the same three
// calls Run makes (Submit, Wait, Result) so each gets a client span, and
// watches the job with Server.Wait to span its submit-to-done interval.
func (s *stack) runJob(ctx context.Context, i int, spec server.JobSpec, tr *tracer) (jobOutcome, error) {
	if tr == nil {
		t0 := time.Now()
		st, data, err := s.cl.Run(ctx, spec)
		return jobOutcome{st, data, time.Since(t0)}, err
	}
	s.tap.set(tr)
	defer s.tap.set(nil)
	root := tr.beginOp(i)
	defer tr.close(root)
	t0 := time.Now()
	sub := tr.open("client.submit", "client")
	st, err := s.cl.Submit(ctx, spec)
	tr.close(sub)
	if err != nil {
		return jobOutcome{}, err
	}
	submitted := time.Now()
	done := make(chan time.Time, 1)
	go func() {
		_, _ = s.srv.Wait(ctx, st.ID) // the client's Wait reports the job's fate
		done <- time.Now()
	}()
	wait := tr.open("client.wait", "client")
	st, err = s.cl.Wait(ctx, st.ID)
	tr.close(wait)
	waited := time.Now()
	doneAt := <-done
	tr.record("server.job", "server", wait, submitted, doneAt)
	s.slackMS = append(s.slackMS, float64(waited.Sub(doneAt).Nanoseconds())/1e6)
	if err != nil {
		return jobOutcome{}, err
	}
	res := tr.open("client.result", "client")
	data, err := s.cl.Result(ctx, st.ID)
	tr.close(res)
	return jobOutcome{st, data, time.Since(t0)}, err
}

// freshExps alternate in server-fresh's operations.
var freshExps = []string{"recovery", "local"}

// freshSpec is server-fresh's operation i: a small recovery or local
// sweep with a seed of its own, so every job is a cache miss.
func freshSpec(cfg config, i int) server.JobSpec {
	n := len(freshExps)
	sz := cfg.Size
	return server.JobSpec{
		Experiment: freshExps[(i%n+n)%n],
		GMin:       sz.GMin, GMax: sz.GMax, Points: sz.JobPoints,
		Trials: sz.JobTrials, Seed: opSeed(cfg.Seed, i),
		Engine: exp.EngineLanes256, Shards: runtime.NumCPU(), Workers: 1,
		Priority: server.PriorityInteractive,
	}
}

// serverFresh is the server-fresh workload.
type serverFresh struct {
	cfg        config
	st         stack
	dir        string
	history    int
	queueWaits []float64
}

func newServerFresh(cfg config) *serverFresh {
	oracles()
	return &serverFresh{cfg: cfg}
}

// setup starts a server on an empty data directory and primes it with one
// job of each experiment through the client.
func (w *serverFresh) setup(ctx context.Context, dir string) error {
	w.dir = dir
	if err := w.st.start(dir, false, nil); err != nil {
		return err
	}
	for k := 0; k < 2; k++ {
		if _, err := w.op(ctx, -1-k, nil); err != nil {
			return fmt.Errorf("priming job: %w", err)
		}
	}
	w.history = len(w.st.srv.Jobs())
	return nil
}

func (w *serverFresh) op(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	spec := freshSpec(w.cfg, i)
	out, err := w.st.runJob(ctx, i, spec, tr)
	if err != nil {
		return out.lat, err
	}
	if out.st.State != server.StateDone || out.st.Cache != server.CacheMiss || out.st.ReusedPoints != 0 {
		return out.lat, fmt.Errorf("fresh job %s: state %s, cache %q, %d reused points; want a computed miss", out.st.ID, out.st.State, out.st.Cache, out.st.ReusedPoints)
	}
	if _, err := checkJobResult(spec, out.data); err != nil {
		return out.lat, fmt.Errorf("fresh job %s: %w", out.st.ID, err)
	}
	if tr != nil {
		w.queueWaits = append(w.queueWaits, queueWaitMS(w.st.srv, out.st.ID)...)
	}
	return out.lat, nil
}

func (w *serverFresh) probe(_ context.Context, tr *tracer, m map[string]metric) error {
	return serviceMetrics(tr, &w.st, w.history, 0, w.queueWaits, m) // every fresh job is a miss
}

// retrace restarts the server on its data directory with or without the
// tracing wrappers.
func (w *serverFresh) retrace(on bool) error {
	if err := w.st.stop(); err != nil {
		return err
	}
	return w.st.start(w.dir, on, nil)
}

func (w *serverFresh) cycle() int { return len(freshExps) }

func (w *serverFresh) close() error { return w.st.stop() }

// queueWaitMS reads each shard's queue wait from Server.Progress.
func queueWaitMS(srv *server.Server, id string) []float64 {
	p, err := srv.Progress(id)
	if err != nil {
		return nil
	}
	var out []float64
	for _, sp := range p.ShardProgress {
		out = append(out, sp.QueueWaitSeconds*1e3)
	}
	return out
}

// serviceMetrics derives the service layers' per-layer metrics from a
// traced phase.
func serviceMetrics(tr *tracer, st *stack, history, hits int, queueWaits []float64, m map[string]metric) error {
	ops := tr.ops()
	if ops == 0 {
		return errors.New("no traced service operations")
	}
	per := func(n int64) float64 { return float64(n) / float64(ops) }
	med := func(name string) float64 { return median(tr.durationsMS(name)) }
	m["server.submit_ms"] = metric{med("server.submit"), "ms"}
	m["server.digest_lookup_ms"] = metric{med("server.digest_lookup"), "ms"}
	m["server.submit_to_done_ms"] = metric{med("server.job"), "ms"}
	m["server.queue_wait_ms"] = metric{median(queueWaits), "ms"}
	m["server.replay_s"] = metric{st.replay.Seconds(), "s"}
	m["server.jobs_in_history"] = metric{float64(history), "count"}
	m["fs.syncs_per_job"] = metric{per(tr.counted("fs.syncs")), "count"}
	m["fs.renames_per_job"] = metric{per(tr.counted("fs.renames")), "count"}
	m["fs.bytes_written_per_job"] = metric{per(tr.counted("fs.bytes_written")), "bytes"}
	m["resultcache.hit_frac"] = metric{float64(hits) / float64(ops), "frac"}
	m["client.submit_ms"] = metric{med("client.submit"), "ms"}
	m["client.wait_ms"] = metric{med("client.wait"), "ms"}
	m["client.result_ms"] = metric{med("client.result"), "ms"}
	m["client.requests_per_job"] = metric{per(tr.counted("client.requests")), "count"}
	m["client.wait_slack_ms"] = metric{median(st.slackMS), "ms"}
	return nil
}

// serviceProbe runs four traced server-fresh jobs for workloads
// that do not exercise the service.
func serviceProbe(ctx context.Context, cfg config, dir string, m map[string]metric) error {
	w := newServerFresh(cfg)
	if err := w.setup(ctx, dir); err != nil {
		return err
	}
	defer w.close()
	if err := w.retrace(true); err != nil {
		return err
	}
	tr := newTracer()
	for i := 0; i < 4; i++ {
		if _, err := w.op(ctx, 1<<20+i, tr); err != nil {
			return err
		}
	}
	return w.probe(ctx, tr, m)
}
