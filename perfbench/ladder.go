package main

// The layer ladder: fixed probes of single layers, run after the traced
// phase of every workload with inputs that do not depend on the workload
// seed, so counts repeat exactly across runs and times are comparable
// across workloads.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"revft/internal/adder"
	"revft/internal/chaos"
	"revft/internal/circuit"
	"revft/internal/core"
	"revft/internal/exact"
	"revft/internal/exp"
	"revft/internal/gate"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/resultcache"
	"revft/internal/rng"
	"revft/internal/server"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/telemetry"
	"revft/internal/threshold"
)

// ladderSeed seeds every ladder probe.
const ladderSeed = 20050628

// ladder fills the lanes, sim, telemetry, exp, sweep, journal and
// resultcache per-layer metrics.
func ladder(ctx context.Context, cfg config, dir string, m map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	scale := cfg.Size.LadderScale
	g := threshold.MustThreshold(threshold.GNonLocalInit) // ρ = 1/165

	// lanes: one goroutine running a compiled word program at the width
	// each sweep uses.
	logicalAdder, _ := adder.New(cfg.Size.AdderBits)
	kernels := []struct {
		name  string
		c     *circuit.Circuit
		words int
	}{
		{"recovery", core.NewGadget(gate.MAJ, 1).Circuit, 4},
		{"levels2", core.NewGadget(gate.MAJ, 2).Circuit, 4},
		{fmt.Sprintf("adder%d", cfg.Size.AdderBits), core.CompileModule(logicalAdder, 1).Physical, 8},
	}
	for _, k := range kernels {
		prog := lanes.CompileWide(k.c, noise.Uniform(g), k.words)
		m["lanes.ops."+k.name] = metric{float64(prog.Len()), "count"}
		m["lanes.fused."+k.name] = metric{float64(prog.Fused()), "count"}
		m["lanes.ns_per_trial."+k.name] = metric{kernelNS(prog, k.words, 0.1*scale), "ns"}
	}

	// sim: the worker harness at one worker and at nproc workers, on the
	// level-1 gadget's batch trial.
	batch := exp.TargetBatchWide(exact.Gadget(core.NewGadget(gate.MAJ, 1)), noise.Uniform(g), 4)
	probeTrials := int(2e6 * scale)
	rate := func(workers int) float64 {
		t0 := time.Now()
		if _, err := sim.MonteCarloWideCtx(ctx, probeTrials, workers, ladderSeed, 4, batch); err != nil {
			return 0
		}
		return float64(probeTrials) / time.Since(t0).Seconds()
	}
	nproc := runtime.NumCPU()
	w1 := medianOf(5, func() float64 { return rate(1) })
	wn := medianOf(5, func() float64 { return rate(nproc) })
	m["sim.trials_per_s.w1"] = metric{w1, "1/s"}
	m["sim.trials_per_s.wN"] = metric{wn, "1/s"}
	m["sim.scaling_eff"] = metric{wn / (float64(nproc) * w1), "frac"}

	// telemetry: the sweeps' own estimator, whose lanes kernel counts
	// faults when a registry is in the context, with and without one,
	// alternated. The budget is 2%, so this probe runs longest.
	gad := core.NewGadget(gate.MAJ, 1)
	estimate := func(ctx context.Context) float64 {
		t0 := time.Now()
		if _, err := gad.LogicalErrorRateWideCtx(ctx, noise.Uniform(g), 4, 4*probeTrials, 1, ladderSeed); err != nil {
			return 0
		}
		return time.Since(t0).Seconds()
	}
	var bare, instr []float64
	for i := 0; i < 9; i++ {
		bare = append(bare, estimate(ctx))
		instr = append(instr, estimate(telemetry.NewContext(ctx, telemetry.New())))
	}
	m["telemetry.overhead_frac"] = metric{median(instr)/median(bare) - 1, "frac"}

	// exp and sweep: one fixed-seed sweep of each kind.
	var trials int64
	var wall time.Duration
	var last *sweepRun
	for _, kind := range sweepKinds {
		run, err := runSweep(ctx, cfg.Size, kind, ladderSeed, dir, nil)
		if err != nil {
			return err
		}
		m["exp.sweep_s."+kind] = metric{run.wall.Seconds(), "s"}
		trials += run.trials
		wall += run.wall
		if kind == "recovery" {
			last = run
		}
	}
	m["sweep.trials_to_accuracy"] = metric{float64(trials), "count"}
	m["sweep.trials_per_s"] = metric{float64(trials) / wall.Seconds(), "1/s"}
	if err := checkpointProbe(last, dir, m); err != nil {
		return err
	}
	if err := journalProbe(cfg, dir, m); err != nil {
		return err
	}
	return cacheProbe(ctx, cfg, dir, m)
}

// kernelNS times prog.Run on one goroutine: the median over five windows
// of seconds each, in ns per trial lane.
func kernelNS(prog *lanes.WideProgram, words int, seconds float64) float64 {
	st := lanes.NewWideState(prog.Width(), words)
	r := rng.New(ladderSeed)
	return medianOf(5, func() float64 {
		n := 0
		t0 := time.Now()
		for time.Since(t0).Seconds() < seconds {
			for j := 0; j < 64; j++ {
				st.Reset()
				prog.Run(st, r)
			}
			n += 64
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n*64*words)
	})
}

// checkpointProbe times Checkpoint.SaveFS of a finished sweep's final
// checkpoint and counts its bytes.
func checkpointProbe(run *sweepRun, dir string, m map[string]metric) error {
	path := filepath.Join(dir, "probe.ckpt")
	tp := &tap{}
	tr := newTracer()
	tp.set(tr)
	fsys := &traceFS{FS: chaos.OS, tap: tp, layer: "fs"}
	var times []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if err := run.ck.SaveFS(fsys, path); err != nil {
			return fmt.Errorf("checkpoint save: %w", err)
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m["sweep.checkpoint_save_ms"] = metric{median(times), "ms"}
	m["sweep.checkpoint_bytes"] = metric{float64(tr.counted("fs.bytes_written") / 20), "bytes"}
	return nil
}

// journalProbe times Journal.Append of submitted records.
func journalProbe(cfg config, dir string, m map[string]metric) error {
	j, _, err := server.OpenJournal(chaos.OS, filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	defer j.Close()
	spec := freshSpec(cfg, 0)
	var times []float64
	for i := 0; i < 50; i++ {
		rec := server.Record{Seq: int64(i + 1), Type: "submitted", Job: fmt.Sprintf("j%06d", i), At: time.Now().UTC(), Spec: &spec}
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			return fmt.Errorf("journal append: %w", err)
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m["journal.append_ms"] = metric{median(times), "ms"}
	return nil
}

// cacheProbe times Store.Put and Store.Get of a result-sized entry.
func cacheProbe(ctx context.Context, cfg config, dir string, m map[string]metric) error {
	store := &resultcache.Store{Dir: filepath.Join(dir, "cache")}
	spec := freshSpec(cfg, 0)
	res := server.Result{Experiment: spec.Experiment, SpecDigest: spec.Digest(), Grid: spec.Grid()}
	for i := range res.Grid {
		res.Points = append(res.Points, server.ResultPoint{Index: i, Ests: []stats.Bernoulli{{Trials: spec.Trials, Successes: 1234 + i}}})
	}
	payload, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	var puts, gets []float64
	for i := 0; i < 30; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprint("perfbench-probe-", i)))
		digest := hex.EncodeToString(sum[:])
		t0 := time.Now()
		if err := store.Put(ctx, digest, resultcache.Meta{Experiment: spec.Experiment}, payload, telemetry.Span{}); err != nil {
			return fmt.Errorf("cache put: %w", err)
		}
		t1 := time.Now()
		got, _, err := store.Get(digest, telemetry.Span{})
		t2 := time.Now()
		if err != nil || string(got) != string(payload) {
			return fmt.Errorf("cache get: %v", err)
		}
		puts = append(puts, float64(t1.Sub(t0).Nanoseconds())/1e6)
		gets = append(gets, float64(t2.Sub(t1).Nanoseconds())/1e6)
	}
	m["resultcache.put_ms"] = metric{median(puts), "ms"}
	m["resultcache.get_ms"] = metric{median(gets), "ms"}
	return nil
}

// medianOf is the median of n calls of f.
func medianOf(n int, f func() float64) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}
