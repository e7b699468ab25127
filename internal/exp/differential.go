package exp

// Differential verification: the Monte Carlo engines against the exact
// fault-enumeration oracle. For a grid of ε values the harness runs the
// scalar engine — and, when requested, a fused K-word lane engine — on
// the same target and requires each estimate's 3σ Wilson interval to
// intersect the oracle's exact interval [P_W(ε), P_W(ε)+tail] — a point
// for full enumerations. One engine disagreeing fingers that
// engine; all disagreeing fingers the model or the oracle. revft-verify
// -differential and the exact-verify CI job run this; the property tests
// in this package run it on random circuits.

import (
	"context"
	"fmt"

	"revft/internal/bitvec"
	"revft/internal/code"
	"revft/internal/exact"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/sim"
	"revft/internal/stats"
	"revft/internal/telemetry"
)

// DifferentialZ is the Wilson z-value of the acceptance test: 3σ, the
// tolerance the issue and the CI job fix. At z = 3 a correct engine is
// flagged on a given ε with probability ≈ 2.7e-3, and the check is
// deterministic for a fixed (seed, workers, trials).
const DifferentialZ = 3.0

// TargetTrial returns the scalar engine's Monte Carlo trial for an oracle
// target under model m: encode a uniform logical input, run noisily,
// majority-decode every output block against the ideal logical function.
func TargetTrial(t exact.Target, m noise.Model) func(*rng.RNG) bool {
	nin, nout := len(t.In), len(t.Out)
	levIn, levOut := blockLevels(t.In), blockLevels(t.Out)
	return func(r *rng.RNG) bool {
		in := r.Bits(nin)
		st := bitvec.New(t.Circuit.Width())
		for i, wires := range t.In {
			code.EncodeInto(st, wires, in>>uint(i)&1 == 1, levIn[i])
		}
		sim.RunNoisy(t.Circuit, st, m, r)
		want := t.Logical(in) & (1<<uint(nout) - 1)
		for i, wires := range t.Out {
			if code.Decode(st, wires, levOut[i]) != (want>>uint(i)&1 == 1) {
				return true
			}
		}
		return false
	}
}

// TargetBatchWide returns the lane engine's batch trial for the same
// experiment on a words-wide lane block: uniform logical inputs per lane,
// one compiled noisy run per batch covering 64·words lanes, word-parallel
// decode. The ideal reference is computed per lane through t.Logical, so
// any logical function — not just single gates — can be verified.
func TargetBatchWide(t exact.Target, m noise.Model, words int) sim.LaneBatch {
	prog := lanes.CompileWide(t.Circuit, m, words)
	nin, nout := len(t.In), len(t.Out)
	return func(r *rng.RNG, hit []uint64) {
		st := lanes.NewWideState(t.Circuit.Width(), words)
		ins := make([][]uint64, nin)
		for i := range ins {
			ins[i] = make([]uint64, words)
			for k := range ins[i] {
				ins[i][k] = r.Uint64()
			}
		}
		for i, wires := range t.In {
			st.EncodeBlock(wires, ins[i])
		}
		prog.Run(st, r)
		want := make([][]uint64, nout)
		for o := range want {
			want[o] = make([]uint64, words)
		}
		for k := 0; k < words; k++ {
			for lane := 0; lane < 64; lane++ {
				var in uint64
				for i := 0; i < nin; i++ {
					in |= ins[i][k] >> uint(lane) & 1 << uint(i)
				}
				w := t.Logical(in)
				for o := 0; o < nout; o++ {
					want[o][k] |= w >> uint(o) & 1 << uint(lane)
				}
			}
		}
		for k := range hit {
			hit[k] = 0
		}
		dec := make([]uint64, words)
		for i, wires := range t.Out {
			st.DecodeBlock(wires, dec)
			for k := range hit {
				hit[k] |= dec[k] ^ want[i][k]
			}
		}
	}
}

// blockLevels maps codeword block lengths (3^L wires) to their levels.
func blockLevels(blocks [][]int) []int {
	out := make([]int, len(blocks))
	for i, wires := range blocks {
		out[i] = code.Level(len(wires))
	}
	return out
}

// DiffPoint is the differential verdict at one ε: the oracle's exact
// interval, each engine's estimate, and whether each engine's 3σ Wilson
// interval intersects the exact one. Wide/WideOK are only meaningful when
// the run requested a lane engine; WideLanes records its lane count
// (64·words) then, and is 0 otherwise.
type DiffPoint struct {
	Eps              float64
	ExactLo, ExactHi float64
	Scalar           stats.Bernoulli
	ScalarOK         bool
	Wide             stats.Bernoulli
	WideOK           bool
	WideLanes        int
}

// Differential runs the engines against poly at every ε in eps and
// returns the per-ε verdicts. poly must come from Enumerate on t (its
// SkipInit flag selects the matching noise accounting). wideWords > 0
// adds a run per ε on the fused wideWords-word lane-block engine. The ε
// at index i seeds the scalar run with Seed+2i, or with Seed+3i when a
// lane run is requested, which then takes Seed+3i+2; these strides keep
// every verdict reproducible across releases of the harness. Each
// (ε, engine) verdict is also emitted as a "differential" trace event
// when tr is non-nil. The run is cancellable; on cancellation the
// completed points are returned with the error.
func Differential(ctx context.Context, t exact.Target, poly *exact.Poly, eps []float64, p MCParams, wideWords int, tr *telemetry.Trace) ([]DiffPoint, error) {
	stride := 2
	if wideWords > 0 {
		stride = 3
	}
	var out []DiffPoint
	for i, e := range eps {
		var m noise.Model
		if poly.SkipInit {
			m = noise.PerfectInit(e)
		} else {
			m = noise.Uniform(e)
		}
		lo, hi := poly.Bounds(e)
		pt := DiffPoint{Eps: e, ExactLo: lo, ExactHi: hi}

		scalar, err := sim.MonteCarloCtx(ctx, p.Trials, p.Workers, p.Seed+uint64(stride*i), TargetTrial(t, m))
		pt.Scalar = scalar.Bernoulli
		pt.ScalarOK = overlapsExact(pt.Scalar, lo, hi)
		emitDifferential(tr, t.Name, pt, "scalar", pt.Scalar, pt.ScalarOK)
		if err != nil {
			out = append(out, pt)
			return out, err
		}
		if wideWords > 0 {
			wideRes, werr := sim.MonteCarloWideCtx(ctx, p.Trials, p.Workers, p.Seed+uint64(stride*i+2), wideWords, TargetBatchWide(t, m, wideWords))
			pt.Wide = wideRes.Bernoulli
			pt.WideOK = overlapsExact(pt.Wide, lo, hi)
			pt.WideLanes = 64 * wideWords
			emitDifferential(tr, t.Name, pt, fmt.Sprintf("lanes%d", pt.WideLanes), pt.Wide, pt.WideOK)
			err = werr
		}
		out = append(out, pt)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// overlapsExact reports whether the estimate's 3σ Wilson interval
// intersects the oracle interval [lo, hi].
func overlapsExact(b stats.Bernoulli, lo, hi float64) bool {
	wlo, whi := b.Wilson(DifferentialZ)
	return whi >= lo && wlo <= hi
}

func emitDifferential(tr *telemetry.Trace, target string, pt DiffPoint, engine string, b stats.Bernoulli, ok bool) {
	if tr == nil {
		return
	}
	wlo, whi := b.Wilson(DifferentialZ)
	tr.Emit("differential", map[string]any{
		"target": target, "engine": engine, "eps": pt.Eps,
		"trials": b.Trials, "successes": b.Successes,
		"wilson_lo": wlo, "wilson_hi": whi,
		"exact_lo": pt.ExactLo, "exact_hi": pt.ExactHi,
		"ok": ok,
	})
}

// DifferentialTable renders the verdicts, with one note per disagreement
// and the count of failing (ε, engine) checks in the returned int. When
// the points carry lane-engine results (WideLanes > 0), the table grows a
// column pair for that engine.
func DifferentialTable(t exact.Target, poly *exact.Poly, pts []DiffPoint) (*Table, int) {
	kind := "exact"
	if !poly.Exact() {
		kind = fmt.Sprintf("weight ≤ %d of %d", poly.MaxWeight, poly.N)
	}
	wideName := ""
	for _, pt := range pts {
		if pt.WideLanes > 0 {
			wideName = fmt.Sprintf("lanes%d", pt.WideLanes)
			break
		}
	}
	header := []string{"eps", "exact P(eps)", "scalar", "scalar ok"}
	if wideName != "" {
		header = append(header, wideName, wideName+" ok")
	}
	tab := &Table{
		ID:     "DIFF",
		Title:  fmt.Sprintf("Differential verification: %s vs exact P(ε) (%s), 3σ Wilson", t.Name, kind),
		Header: header,
	}
	bad := 0
	for _, pt := range pts {
		ex := fmt.Sprintf("%.4g", pt.ExactLo)
		if pt.ExactHi > pt.ExactLo {
			ex = fmt.Sprintf("[%.4g, %.4g]", pt.ExactLo, pt.ExactHi)
		}
		row := []any{pt.Eps, ex, pt.Scalar.Rate(), pt.ScalarOK}
		type verdict struct {
			name string
			b    stats.Bernoulli
			ok   bool
		}
		engines := []verdict{{"scalar", pt.Scalar, pt.ScalarOK}}
		if wideName != "" {
			row = append(row, pt.Wide.Rate(), pt.WideOK)
			engines = append(engines, verdict{wideName, pt.Wide, pt.WideOK})
		}
		tab.AddRow(row...)
		for _, e := range engines {
			if !e.ok {
				bad++
				wlo, whi := e.b.Wilson(DifferentialZ)
				tab.AddNote("DISAGREE at ε=%g: %s %d/%d → 3σ [%.4g, %.4g] misses exact [%.4g, %.4g]",
					pt.Eps, e.name, e.b.Successes, e.b.Trials, wlo, whi, pt.ExactLo, pt.ExactHi)
			}
		}
	}
	if bad == 0 {
		tab.AddNote("every engine agrees with the oracle at every ε (A1 = 0 proven exhaustively; A2 = %.6g)", poly.CoeffFloat(2))
	}
	return tab, bad
}
