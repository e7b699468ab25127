package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"revft/internal/server"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// tinySizes shrink every workload so a full run takes seconds.
var tinySizes = sizes{
	GMin: 0.002, GMax: 0.02, GridPoints: 3,
	RelTol: 0.5, ZeroScale: 1e-2, MinTrials: 1024, MaxTrials: 1 << 14,
	MaxLevel: 2, AdderBits: 4, LadderScale: 0.02,

	JobPoints: 3, JobTrials: 5000,
	SupersetPoints: 5, Supersets: 2, HistorySpecs: 5, HistoryJobs: 20, RepeatsPerHit: 3, HitsPerBlock: 2,
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{Workload: workload, Seed: 7, Seconds: 0.4, Trace: trace, Out: t.TempDir(), Size: tinySizes, Log: io.Discard}
}

type benchFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// Each workload, at a tiny size, emits exactly the metrics BENCHMARK.json
// names, each with its unit: the end-to-end ones untraced and the
// per-layer ones traced.
func TestWorkloadsEmitEveryNamedMetric(t *testing.T) {
	b := loadBenchFile(t)
	for _, wl := range b.Work {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			t.Run(wl.Name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				rep, err := run(context.Background(), tinyConfig(t, wl.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
			})
		}
	}
}

// The oracle gate accepts an estimate at the exact rate and rejects one
// far from it.
func TestGateTripsOnWrongEstimate(t *testing.T) {
	polys, err := oracles()
	if err != nil {
		t.Fatal(err)
	}
	g, n := 0.01, 1_000_000
	exact := polys[1].Eval(g)
	good := stats.Bernoulli{Trials: n, Successes: int(exact * float64(n))}
	if err := checkOracle(1, g, good); err != nil {
		t.Fatalf("estimate at the exact rate rejected: %v", err)
	}
	bad := stats.Bernoulli{Trials: n, Successes: int(1.5 * exact * float64(n))}
	if err := checkOracle(1, g, bad); err == nil {
		t.Fatal("estimate 50% above the exact rate accepted")
	}

	sz := tinySizes
	run, err := runSweep(context.Background(), sz, "recovery", 3, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	run.ck.Done[1].Ests[0].Successes = run.ck.Done[1].Ests[0].Trials / 2
	if err := checkSweep(sz, run); err == nil || !strings.Contains(err.Error(), "misses exact") {
		t.Fatalf("tampered recovery sweep: got %v, want an oracle miss", err)
	}
}

// A cache entry rewritten with a valid hash but a wrong point is served
// as a hit; the gate catches it against the fresh superset. An adopted
// repeat that differs from its original is caught too.
func TestGateTripsOnTamperedCacheEntry(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(t, "server-reuse", false)
	w := newServerReuse(cfg)
	if err := w.setup(ctx, filepath.Join(cfg.Out, "data")); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, err := w.op(ctx, 0, nil); err != nil {
		t.Fatalf("untampered hit: %v", err)
	}

	metas, err := w.st.store.List()
	if err != nil || len(metas) == 0 {
		t.Fatalf("list: %d entries, %v", len(metas), err)
	}
	for _, meta := range metas {
		payload, _, err := w.st.store.Get(meta.SpecDigest, telemetry.Span{})
		if err != nil {
			t.Fatal(err)
		}
		var res server.Result
		if err := json.Unmarshal(payload, &res); err != nil {
			t.Fatal(err)
		}
		for i := range res.Points {
			res.Points[i].Ests[0].Successes++
		}
		tampered, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.st.store.Put(ctx, meta.SpecDigest, meta, append(tampered, '\n'), telemetry.Span{}); err != nil {
			t.Fatal(err)
		}
	}
	cycle := cfg.Size.RepeatsPerHit + 1
	if _, err := w.op(ctx, cycle, nil); err == nil || !strings.Contains(err.Error(), "superset has") {
		t.Fatalf("hit off a tampered entry: got %v, want a superset mismatch", err)
	}

	orig := w.orig[0]
	w.orig[0] = append([]byte(nil), orig[:len(orig)-2]...)
	if _, err := w.repeatOp(ctx, 1, 0, nil); err == nil || !strings.Contains(err.Error(), "differs from the original") {
		t.Fatalf("repeat against a changed original: got %v, want a byte mismatch", err)
	}
}

// Every block of server-reuse operations starts from the set-up history:
// the first operation of a block restores it, so the block's hits, which
// replay the previous block's specs, each add one job to it again.
func TestReuseBlocksStartFromSetupHistory(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(t, "server-reuse", false)
	w := newServerReuse(cfg)
	if err := w.setup(ctx, filepath.Join(cfg.Out, "data")); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	base := len(w.st.srv.Jobs())
	for i := 0; i < 3*w.cycle(); i++ {
		if _, err := w.op(ctx, i, nil); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%w.cycle() == 0 {
			if n := len(w.st.srv.Jobs()); n != base+1 {
				t.Fatalf("after op %d: %d jobs, want the %d set-up jobs and one hit", i, n, base)
			}
		}
	}
	if n := len(w.st.srv.Jobs()); n != base+cfg.Size.HitsPerBlock {
		t.Fatalf("end of a block: %d jobs, want %d set-up jobs and %d hits", n, base, cfg.Size.HitsPerBlock)
	}
}

// layers.json says, for every per-layer metric, which end-to-end metric
// it should move and on which workload.
func TestLayerMapCoversEveryPerLayerMetric(t *testing.T) {
	b := loadBenchFile(t)
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]struct{ Layer, Moves, On, How string }
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, p := range b.PerLayer {
		e, ok := m[p.Name]
		if !ok || e.Moves == "" || e.On == "" || e.How == "" {
			t.Errorf("layers.json: no complete entry for %s", p.Name)
		}
	}
	if len(m) != len(b.PerLayer) {
		t.Errorf("layers.json has %d entries, BENCHMARK.json %d per-layer metrics", len(m), len(b.PerLayer))
	}
}

// A slowdown confined to two of the five windows leaves the windowed
// quantiles at the clean value.
func TestWindowedIgnoresAShortSlowdown(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = 10
		if i >= 20 && i < 60 {
			v[i] = 30
		}
	}
	if got := windowed(v, 0.9); got != 10 {
		t.Errorf("windowed p90 = %v, want 10", got)
	}
	if got := quantile(v, 0.9); got != 30 {
		t.Errorf("pooled p90 = %v, want 30: the slowdown should show without windows", got)
	}
}
