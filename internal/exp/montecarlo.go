package exp

import (
	"context"
	"fmt"
	"slices"

	"revft/internal/bitvec"
	"revft/internal/code"
	"revft/internal/core"
	"revft/internal/entropy"
	"revft/internal/lanes"
	"revft/internal/lattice"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/telemetry"
	"revft/internal/vonneumann"
)

// Engine names for MCParams.Engine.
const (
	// EngineScalar runs one trial at a time (sim.MonteCarlo). The empty
	// string selects it too.
	EngineScalar = "scalar"
	// EngineLanes256 runs 256 bit-sliced trials per batch on 4-word lane
	// blocks through the fused word-program compiler (lanes.CompileWide).
	EngineLanes256 = "lanes256"
	// EngineLanes512 is the 8-word, 512-lane variant of EngineLanes256.
	EngineLanes512 = "lanes512"
)

// Engines lists every engine name MCParams.Engine accepts, in the order
// help and error texts print them.
var Engines = []string{EngineScalar, EngineLanes256, EngineLanes512}

// ValidEngine reports whether name selects a known engine ("" selects
// EngineScalar).
func ValidEngine(name string) bool {
	return name == "" || slices.Contains(Engines, name)
}

// MCParams controls the Monte Carlo experiment drivers.
type MCParams struct {
	// Trials per data point.
	Trials int
	// Workers for the parallel harness; 0 selects GOMAXPROCS.
	Workers int
	// Seed makes every experiment reproducible.
	Seed uint64
	// Engine selects the execution engine for the drivers that support
	// more than one: EngineScalar (default), EngineLanes256, or
	// EngineLanes512. The engines agree statistically but consume
	// randomness differently, so switching engines changes individual
	// estimates within their confidence intervals.
	Engine string
}

// wideWords returns the lane-block word count of the wide engines (4 for
// EngineLanes256, 8 for EngineLanes512) and 0 for every other engine.
func (p MCParams) wideWords() int {
	switch p.Engine {
	case EngineLanes256:
		return 4
	case EngineLanes512:
		return 8
	}
	return 0
}

// DefaultMCParams returns sensible defaults for interactive runs.
func DefaultMCParams() MCParams {
	return MCParams{Trials: 200000, Seed: 1}
}

// Recovery measures the Figure 2 extended rectangle: the level-1 logical
// error rate of a MAJ gate followed by recovery, versus the paper's
// Equation 1 bound 3·C(G,2)·g², across a sweep of gate error rates.
// It is RecoveryCtx with a background context and default options; a trial
// panic propagates.
func Recovery(gs []float64, p MCParams) *Table {
	return mustSweep(RecoveryCtx(context.Background(), gs, p, SweepOptions{}))
}

// Levels measures the Figure 3 concatenation behavior: logical error rate
// at levels 0–2 across a g sweep, against the Equation 2 level bounds.
func Levels(gs []float64, maxLevel int, p MCParams) *Table {
	return mustSweep(LevelsCtx(context.Background(), gs, maxLevel, p, SweepOptions{}))
}

// Local measures the level-1 logical error rates of the local cycles: the
// 2D perpendicular scheme (strictly fault tolerant) and the literal 1D
// scheme, whose crossing-swap channel shows up as a linear-in-g component.
func Local(gs []float64, p MCParams) *Table {
	return mustSweep(LocalCtx(context.Background(), gs, p, SweepOptions{}))
}

// mustSweep unwraps a sweep driver run under a background context, where
// the only possible error is a recovered trial panic.
func mustSweep(t *Table, err error) *Table {
	if err != nil {
		panic(err)
	}
	return t
}

// cycleTrial returns the scalar trial for one noisy cycle execution on a
// uniformly random logical input.
func cycleTrial(c *lattice.Cycle, m noise.Model) func(r *rng.RNG) bool {
	return func(r *rng.RNG) bool {
		in := r.Bits(len(c.In))
		st := bitvec.New(c.Circuit.Width())
		for i, wires := range c.In {
			code.EncodeInto(st, wires, in>>uint(i)&1 == 1, 1)
		}
		sim.RunNoisy(c.Circuit, st, m, r)
		want := c.Kind.Eval(in)
		for i, wires := range c.Out {
			if code.Decode(st, wires, 1) != (want>>uint(i)&1 == 1) {
				return true
			}
		}
		return false
	}
}

func cycleErrorRate(c *lattice.Cycle, m noise.Model, trials, workers int, seed uint64) stats.Bernoulli {
	return sim.MonteCarlo(trials, workers, seed, cycleTrial(c, m))
}

// cycleBatchWide compiles the cycle once through the fused word-program
// compiler and returns the batch trial on a words-wide lane block: random
// logical inputs per lane, one compiled noisy run per batch advancing
// 64·words trials, word-parallel majority decode. When ctx carries a
// telemetry registry, fault events are tallied per gate location under
// "lanes.op_faults.<label>" (label is "cycle2d" or "cycle1d").
func cycleBatchWide(ctx context.Context, label string, c *lattice.Cycle, m noise.Model, words int) sim.LaneBatch {
	prog := lanes.CompileWide(c.Circuit, m, words)
	var instr *lanes.Instr
	if reg := telemetry.Active(ctx); reg != nil {
		instr = &lanes.Instr{
			Faults:   reg.Counter("lanes.faults"),
			OpFaults: reg.CounterVec("lanes.op_faults."+label, c.Circuit.OpLabels()),
		}
	}
	nin := len(c.In)
	return func(r *rng.RNG, hit []uint64) {
		st := lanes.NewWideState(c.Circuit.Width(), words)
		ins := make([][]uint64, nin)
		for i := range ins {
			ins[i] = make([]uint64, words)
			for k := range ins[i] {
				ins[i][k] = r.Uint64()
			}
		}
		for i, wires := range c.In {
			st.EncodeBlock(wires, ins[i])
		}
		prog.RunInstr(st, r, instr)
		want := make([][]uint64, nin)
		for i := range want {
			want[i] = append([]uint64(nil), ins[i]...)
		}
		lanes.EvalWide(c.Kind, want)
		for k := range hit {
			hit[k] = 0
		}
		dec := make([]uint64, words)
		for i, wires := range c.Out {
			st.DecodeBlock(wires, dec)
			for k := range hit {
				hit[k] |= dec[k] ^ want[i][k]
			}
		}
	}
}

// EntropyMeasured measures the ancilla entropy of one noisy recovery cycle
// against §4's per-cycle bounds.
func EntropyMeasured(gs []float64, p MCParams) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Measured ancilla entropy per recovery cycle vs §4 bounds (bits)",
		Header: []string{"g", "measured H", "lower H(g/2)", "upper E·(H(7g/8)+(7g/8)log₂7)", "within"},
	}
	for i, g := range gs {
		h := entropy.MeasuredRecoveryEntropy(g, p.Trials, p.Seed+uint64(i))
		lo := entropy.BinaryEntropy(g / 2)
		hi := float64(core.RecoveryOps) * entropy.PerGateEntropy(g)
		t.AddRow(g, h, lo, hi, h >= lo && h <= hi)
	}
	t.AddNote("measured entropy is the Shannon entropy of the joint distribution of the six discarded wires")
	return t
}

// VonNeumannChain measures the NAND-multiplexing baseline: decoded error of
// a depth-d chain of multiplexed NANDs, below and above its threshold.
func VonNeumannChain(p MCParams) *Table {
	t := &Table{
		ID:     "VN",
		Title:  "NAND-multiplexing chain error (bundle N = 100)",
		Header: []string{"eps", "depth-15 error", "depth-16 error", "bistable (analytic)"},
	}
	trials := p.Trials / 100
	if trials < 50 {
		trials = 50
	}
	// Above threshold the bundle fraction settles near a single fixed
	// level; depending on chain parity that can masquerade as a correct
	// decode, so both parities are reported.
	for i, eps := range []float64{0.001, 0.01, 0.03, 0.06, 0.09, 0.15} {
		u := vonneumann.Unit{N: 100, Eps: eps}
		err15 := vonneumann.ChainErrorRate(u, 15, trials, p.Seed+uint64(2*i))
		err16 := vonneumann.ChainErrorRate(u, 16, trials, p.Seed+uint64(2*i+1))
		t.AddRow(eps, err15, err16, vonneumann.Bistable(eps))
	}
	t.AddNote("analytic bistability threshold: %.4f (paper quotes \"about 11%%\" for multiplexing schemes)",
		vonneumann.Threshold())
	return t
}

// AdderModule measures a realistic module: the n-bit Cuccaro adder compiled
// to level 1, versus the bare adder and the 1−(1−g)^T prediction.
func AdderModule(n int, gs []float64, p MCParams) *Table {
	return mustSweep(AdderModuleCtx(context.Background(), n, gs, p, SweepOptions{}))
}

func ciStr(lo, hi float64) string {
	return fmt.Sprintf("[%.3g, %.3g]", lo, hi)
}
