package exp

import (
	"context"
	"testing"

	"revft/internal/adder"
	"revft/internal/core"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/telemetry"
)

// Wide-vs-scalar equivalence: the shipped 4- and 8-word blocks must agree
// with the scalar engine under the same 95% Wilson overlap criterion as
// the one-word blocks in engines_test.go.

func TestGadgetWideEnginesEquivalentSweep(t *testing.T) {
	gad := core.NewGadget(gate.MAJ, 1)
	const trials = 40000
	for i, g := range []float64{1e-3, 5e-3, 2e-2} {
		m := noise.Uniform(g)
		seed := uint64(400 + i)
		scalar := gad.LogicalErrorRate(m, trials, 4, seed)
		for _, words := range []int{4, 8} {
			wide := gad.LogicalErrorRateWide(m, words, trials, 4, seed)
			if wide.Trials != trials {
				t.Fatalf("words=%d: wide engine ran %d trials, want %d", words, wide.Trials, trials)
			}
			requireOverlap(t, "level-1 MAJ gadget (wide)", g, scalar, wide)
		}
	}
}

func TestModuleWideEnginesEquivalent(t *testing.T) {
	logical, _ := adder.New(2)
	m := core.CompileModule(logical, 1)
	const trials = 20000
	const in = uint64(0b0110)
	for i, g := range []float64{1e-3, 5e-3} {
		nm := noise.Uniform(g)
		seed := uint64(500 + i)
		requireOverlap(t, "FT adder module (wide)", g,
			m.ErrorRate(in, nm, trials, 4, seed),
			m.ErrorRateWide(in, nm, 4, trials, 4, seed))
		requireOverlap(t, "bare adder (wide)", g,
			core.UnprotectedErrorRate(logical, in, nm, trials, 4, seed),
			core.UnprotectedErrorRateWide(logical, in, nm, 4, trials, 4, seed))
	}
}

// TestDriversAcceptWideEngines pins the engine list and smoke-tests the
// routed drivers on the lanes512 engine, mirroring
// TestDriversAcceptLanesEngine. The retired 64-lane name "lanes" is
// rejected, by ValidEngine and by the server-facing ShardableSweep, rather
// than falling back to another engine.
func TestDriversAcceptWideEngines(t *testing.T) {
	if w := (MCParams{Engine: EngineLanes256}).wideWords(); w != 4 {
		t.Fatalf("lanes256 wideWords = %d, want 4", w)
	}
	if w := (MCParams{Engine: EngineLanes512}).wideWords(); w != 8 {
		t.Fatalf("lanes512 wideWords = %d, want 8", w)
	}
	for _, name := range append([]string{""}, Engines...) {
		if !ValidEngine(name) {
			t.Fatalf("ValidEngine(%q) = false", name)
		}
		if _, _, err := ShardableSweep("recovery", []float64{1e-3}, 0, 0, MCParams{Trials: 1, Engine: name}); err != nil {
			t.Fatalf("ShardableSweep(engine %q): %v", name, err)
		}
	}
	for _, name := range []string{"lanes", "lanes128", "Scalar"} {
		if ValidEngine(name) {
			t.Fatalf("ValidEngine accepted unknown engine %q", name)
		}
		if _, _, err := ShardableSweep("recovery", []float64{1e-3}, 0, 0, MCParams{Trials: 1, Engine: name}); err == nil {
			t.Fatalf("ShardableSweep accepted unknown engine %q", name)
		}
	}

	tb := Recovery([]float64{2e-3}, MCParams{Trials: 30000, Seed: 9, Engine: EngineLanes512})
	if len(tb.Rows) != 1 {
		t.Fatalf("Recovery rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][4] != "true" || tb.Rows[0][5] != "true" {
		t.Fatalf("lanes512 Recovery below threshold failed: %v", tb.Rows[0])
	}

	tb = Levels([]float64{2e-3}, 1, MCParams{Trials: 2000, Seed: 4, Engine: EngineLanes512})
	if len(tb.Rows) != 2 {
		t.Fatalf("Levels rows = %d", len(tb.Rows))
	}

	tb = Local([]float64{1e-3}, MCParams{Trials: 2000, Seed: 5, Engine: EngineLanes512})
	if len(tb.Rows) != 1 {
		t.Fatalf("Local rows = %d", len(tb.Rows))
	}

	tb = AdderModule(2, []float64{2e-3}, MCParams{Trials: 5000, Seed: 6, Engine: EngineLanes512})
	if len(tb.Rows) != 1 {
		t.Fatalf("AdderModule rows = %d", len(tb.Rows))
	}
}

// TestLaneFaultTelemetryCountsSlots is the slot-vs-trial regression: with
// p = 1 every op faults in every simulated lane slot, so the fault
// counter must equal ops × lanes.slots — not ops × lanes.trials — and a
// per-trial fault rate normalized by lanes.slots comes out exactly 1 per
// op. trials = 65 forces a partial final batch at every block width, so
// the two denominators genuinely differ.
func TestLaneFaultTelemetryCountsSlots(t *testing.T) {
	gad := core.NewGadget(gate.MAJ, 1)
	ops := int64(gad.Circuit.Len())
	const trials = 65
	for _, tc := range []struct {
		engine string
		words  int
		slots  int64
	}{
		{"words=1", 1, 128},  // two 64-lane batches
		{"lanes256", 4, 256}, // one 256-lane block
		{"lanes512", 8, 512}, // one 512-lane block
	} {
		reg := telemetry.New()
		ctx := telemetry.NewContext(context.Background(), reg)
		res, err := gad.LogicalErrorRateWideCtx(ctx, noise.Uniform(1), tc.words, trials, 1, 3)
		if err != nil {
			t.Fatalf("%s: %v", tc.engine, err)
		}
		if res.Trials != trials {
			t.Fatalf("%s: counted %d trials, want %d", tc.engine, res.Trials, trials)
		}
		if got := reg.Counter("lanes.trials").Load(); got != trials {
			t.Errorf("%s: lanes.trials = %d, want %d", tc.engine, got, trials)
		}
		if got := reg.Counter("lanes.slots").Load(); got != tc.slots {
			t.Errorf("%s: lanes.slots = %d, want %d", tc.engine, got, tc.slots)
		}
		if got := reg.Counter("lanes.faults").Load(); got != ops*tc.slots {
			t.Errorf("%s: lanes.faults = %d, want ops(%d) × slots(%d) = %d",
				tc.engine, got, ops, tc.slots, ops*tc.slots)
		}
	}
}
