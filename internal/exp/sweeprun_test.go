package exp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"revft/internal/sweep"
	"revft/internal/telemetry"
)

// cancelAfter is an io.Writer that cancels a context after n progress
// lines, simulating a SIGINT landing between sweep points.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	if c.n--; c.n <= 0 {
		c.cancel()
	}
	return len(p), nil
}

// TestRecoveryInterruptResumeIdentical is the acceptance criterion: a
// sweep killed mid-run and resumed from its checkpoint produces a final
// table identical to the uninterrupted run for the same (seed, workers,
// engine).
func TestRecoveryInterruptResumeIdentical(t *testing.T) {
	gs := []float64{1e-3, 3e-3, 1e-2}
	p := MCParams{Trials: 20000, Workers: 2, Seed: 11}
	ck := filepath.Join(t.TempDir(), "ck.json")

	full, err := RecoveryCtx(context.Background(), gs, p, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the first completed point.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := RecoveryCtx(ctx, gs, p, SweepOptions{
		Checkpoint: ck,
		Progress:   &cancelAfter{n: 1, cancel: cancel},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if !strings.Contains(partial.Title, "[PARTIAL]") {
		t.Errorf("interrupted table not marked partial: %q", partial.Title)
	}
	if len(partial.Rows) >= len(gs) {
		t.Fatalf("interrupted run rendered %d rows, want fewer than %d", len(partial.Rows), len(gs))
	}

	resumed, err := RecoveryCtx(context.Background(), gs, p, SweepOptions{Checkpoint: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Format(), full.Format(); got != want {
		t.Errorf("resumed table differs from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
	}
}

// TestResumeRejectsChangedSpec: resuming under a different trial budget
// must refuse the checkpoint rather than silently mix estimates.
func TestResumeRejectsChangedSpec(t *testing.T) {
	gs := []float64{1e-2}
	p := MCParams{Trials: 2000, Workers: 2, Seed: 3}
	ck := filepath.Join(t.TempDir(), "ck.json")
	if _, err := RecoveryCtx(context.Background(), gs, p, SweepOptions{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	p.Trials = 4000
	_, err := RecoveryCtx(context.Background(), gs, p, SweepOptions{Checkpoint: ck, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Errorf("resume with changed trials: err = %v, want digest mismatch", err)
	}
}

// TestRelTolAgreesWithFixed: an adaptive sweep must report rates
// statistically compatible with the fixed-budget sweep — overlapping 95%
// Wilson intervals at every point — while running fewer trials at points
// where the estimate tightens early.
func TestRelTolAgreesWithFixed(t *testing.T) {
	gs := []float64{5e-3, 2e-2}
	p := MCParams{Trials: 150000, Workers: 2, Seed: 5}

	o := SweepOptions{RelTol: 0.1, MinTrials: 2000}
	adaptive, err := RecoveryCtx(context.Background(), gs, p, o)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := RecoveryCtx(context.Background(), gs, p, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive.Rows) != len(fixed.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(adaptive.Rows), len(fixed.Rows))
	}
	// The CI column renders "[lo, hi]"; compare interval overlap per row.
	for i := range fixed.Rows {
		aLo, aHi := parseCI(t, adaptive.Rows[i][2])
		fLo, fHi := parseCI(t, fixed.Rows[i][2])
		if aLo > fHi || fLo > aHi {
			t.Errorf("g=%s: adaptive CI %s and fixed CI %s are disjoint",
				fixed.Rows[i][0], adaptive.Rows[i][2], fixed.Rows[i][2])
		}
	}
	// At least one note must record the early-stopping trial counts.
	found := false
	for _, n := range adaptive.Notes {
		if strings.Contains(n, "adaptive early stopping") {
			found = true
		}
	}
	if !found {
		t.Error("adaptive table missing the early-stopping note")
	}
}

func parseCI(t *testing.T, s string) (lo, hi float64) {
	t.Helper()
	if n, err := fmt.Sscanf(s, "[%g, %g]", &lo, &hi); n != 2 || err != nil {
		t.Fatalf("cannot parse CI cell %q: %v", s, err)
	}
	return lo, hi
}

// TestLevelsAdderLocalCtxComplete: the remaining sweep drivers run under
// the resilient runtime with checkpoints and reproduce their legacy
// tables.
func TestLevelsAdderLocalCtxComplete(t *testing.T) {
	gs := []float64{2e-3}
	p := MCParams{Trials: 3000, Workers: 2, Seed: 8}
	dir := t.TempDir()

	lv, err := LevelsCtx(context.Background(), gs, 1, p, SweepOptions{Checkpoint: filepath.Join(dir, "lv.json")})
	if err != nil {
		t.Fatal(err)
	}
	if legacy := Levels(gs, 1, p); lv.Format() != legacy.Format() {
		t.Error("LevelsCtx table differs from Levels")
	}

	lc, err := LocalCtx(context.Background(), gs, p, SweepOptions{Checkpoint: filepath.Join(dir, "lc.json")})
	if err != nil {
		t.Fatal(err)
	}
	if legacy := Local(gs, p); lc.Format() != legacy.Format() {
		t.Error("LocalCtx table differs from Local")
	}

	ad, err := AdderModuleCtx(context.Background(), 2, gs, p, SweepOptions{Checkpoint: filepath.Join(dir, "ad.json")})
	if err != nil {
		t.Fatal(err)
	}
	if legacy := AdderModule(2, gs, p); ad.Format() != legacy.Format() {
		t.Error("AdderModuleCtx table differs from AdderModule")
	}

	// Each checkpoint must be loadable and complete.
	for _, name := range []string{"lv.json", "lc.json", "ad.json"} {
		ckpt, err := sweep.Load(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(ckpt.Done) == 0 {
			t.Errorf("%s: empty checkpoint", name)
		}
	}
}

// TestLanesEngineResumeIdentical: the bit-identity contract holds on the
// lanes256 engine too.
func TestLanesEngineResumeIdentical(t *testing.T) {
	gs := []float64{1e-3, 1e-2}
	p := MCParams{Trials: 30000, Workers: 2, Seed: 13, Engine: EngineLanes256}
	ck := filepath.Join(t.TempDir(), "ck.json")

	full, err := LocalCtx(context.Background(), gs, p, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := LocalCtx(ctx, gs, p, SweepOptions{
		Checkpoint: ck,
		Progress:   &cancelAfter{n: 1, cancel: cancel},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted lanes run: err = %v", err)
	}
	resumed, err := LocalCtx(context.Background(), gs, p, SweepOptions{Checkpoint: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Format() != full.Format() {
		t.Error("resumed lanes table differs from uninterrupted run")
	}
}

// TestRecoveryTelemetryAgreesWithTable runs a real sweep with the full
// observability stack attached and checks the three-way agreement the
// trace exists to provide: the JSONL per-point trial counts, the
// registry's counters, and the sweep outcome all report the same numbers.
func TestRecoveryTelemetryAgreesWithTable(t *testing.T) {
	reg := telemetry.New()
	man := telemetry.Collect("exp-test")
	var buf bytes.Buffer
	tr, err := telemetry.NewTrace(&buf, man)
	if err != nil {
		t.Fatal(err)
	}
	gs := []float64{1e-3, 1e-2}
	p := MCParams{Trials: 2000, Workers: 2, Seed: 11, Engine: EngineLanes256}
	o := SweepOptions{Metrics: reg, Trace: tr, Manifest: man}
	if _, err := RecoveryCtx(context.Background(), gs, p, o); err != nil {
		t.Fatal(err)
	}

	// Registry: every point ran its full fixed budget on the lane engine.
	snap := reg.Snapshot()
	wantTrials := int64(len(gs) * p.Trials)
	if got := snap.Counters[telemetry.TrialsMetric]; got != wantTrials {
		t.Errorf("sim.trials = %d, want %d", got, wantTrials)
	}
	if got := snap.Counters["lanes.trials"]; got != wantTrials {
		t.Errorf("lanes.trials = %d, want %d", got, wantTrials)
	}
	if snap.Counters["lanes.faults"] == 0 {
		t.Error("lanes.faults = 0 after a noisy sweep")
	}
	if snap.Gauges["exp.recovery.G_analytic"] != 11 {
		t.Errorf("exp.recovery.G_analytic = %v, want 11 (paper's G)", snap.Gauges["exp.recovery.G_analytic"])
	}
	// The per-op fault vector for the level-1 MAJ gadget must exist and
	// sum to the total fault count.
	var vecSum int64
	for name, vec := range snap.Vecs {
		if !strings.HasPrefix(name, "lanes.op_faults.gadget.MAJ.L1") {
			continue
		}
		for _, v := range vec.Counts {
			vecSum += v
		}
	}
	if vecSum != snap.Counters["lanes.faults"] {
		t.Errorf("per-op fault tallies sum to %d, total counter says %d", vecSum, snap.Counters["lanes.faults"])
	}

	// Trace: point_done trials match the fixed budget per point.
	sc := bufio.NewScanner(&buf)
	points := 0
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v", err)
		}
		if ev["type"] != "point_done" {
			continue
		}
		points++
		for _, tv := range ev["trials"].([]any) {
			if int(tv.(float64)) != p.Trials {
				t.Errorf("trace point %v trials = %v, want %d", ev["point"], tv, p.Trials)
			}
		}
	}
	if points != len(gs) {
		t.Errorf("trace has %d point_done events, want %d", points, len(gs))
	}
	if man.SpecDigest == "" {
		t.Error("manifest was not stamped with the spec digest")
	}
}

// TestLocalTelemetryLabelsCycles: the local sweep tallies per-op faults
// under separate cycle2d/cycle1d vectors on the lane engine.
func TestLocalTelemetryLabelsCycles(t *testing.T) {
	reg := telemetry.New()
	p := MCParams{Trials: 1500, Workers: 1, Seed: 3, Engine: EngineLanes256}
	if _, err := LocalCtx(context.Background(), []float64{2e-2}, p, SweepOptions{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"lanes.op_faults.cycle2d", "lanes.op_faults.cycle1d"} {
		vec, ok := snap.Vecs[name]
		if !ok {
			t.Errorf("missing vector %s (have %d vecs)", name, len(snap.Vecs))
			continue
		}
		var sum int64
		for _, v := range vec.Counts {
			sum += v
		}
		if sum == 0 {
			t.Errorf("%s recorded no faults at g=2e-2", name)
		}
	}
	for _, name := range []string{"exp.local.cycle2d.G_analytic", "exp.local.cycle1d.G_analytic"} {
		if snap.Gauges[name] == 0 {
			t.Errorf("gauge %s not set", name)
		}
	}
}
