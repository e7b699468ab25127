package lanes

import (
	"math"
	"math/bits"
	"testing"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/code"
	"revft/internal/gate"
	"revft/internal/noise"
	"revft/internal/rng"
)

// TestEvalMatchesGateTables packs every local input state of every gate
// into distinct lanes and checks the word kernel against the lookup table.
func TestEvalMatchesGateTables(t *testing.T) {
	for _, k := range gate.Kinds() {
		arity := k.Arity()
		n := 1 << uint(arity)
		// Lane j carries local input j: w[i] bit j = bit i of j.
		w := make([]uint64, arity)
		for j := 0; j < n; j++ {
			for i := 0; i < arity; i++ {
				w[i] |= uint64(j) >> uint(i) & 1 << uint(j)
			}
		}
		Eval(k, w)
		for j := 0; j < n; j++ {
			var got uint64
			for i := 0; i < arity; i++ {
				got |= w[i] >> uint(j) & 1 << uint(i)
			}
			if want := k.Eval(uint64(j)); got != want {
				t.Errorf("%s kernel: input %0*b -> %0*b, table says %0*b",
					k, arity, j, arity, got, arity, want)
			}
		}
	}
}

// TestRunNoiselessMatchesScalar runs random circuits on random per-lane
// states through a one-word program and the scalar evaluator and demands
// bit-identical results.
func TestRunNoiselessMatchesScalar(t *testing.T) {
	const width = 8
	r := rng.New(11)
	kinds := gate.Kinds()
	for trial := 0; trial < 50; trial++ {
		c := circuit.New(width)
		for len := 0; len < 40; len++ {
			k := kinds[r.Intn(10)]
			perm := r.Perm(width)
			c.Append(k, perm[:k.Arity()]...)
		}
		st := NewWideState(width, 1)
		for w := range st.W {
			st.W[w] = r.Uint64()
		}
		want := make([]uint64, width)
		for lane := 0; lane < 64; lane++ {
			sc := bitvec.New(width)
			for w := 0; w < width; w++ {
				sc.Set(w, st.W[w]>>uint(lane)&1 == 1)
			}
			c.Run(sc)
			for w := 0; w < width; w++ {
				if sc.Get(w) {
					want[w] |= 1 << uint(lane)
				}
			}
		}
		CompileWide(c, noise.Noiseless, 1).RunNoiseless(st)
		for w := 0; w < width; w++ {
			if st.W[w] != want[w] {
				t.Fatalf("circuit %d wire %d: lanes %064b, scalar %064b", trial, w, st.W[w], want[w])
			}
		}
	}
}

// TestRunNoiselessModelFaultFree checks that Run under the noiseless model
// is exactly RunNoiseless and reports zero fault events, on unfused
// kernels in a one-word block.
func TestRunNoiselessModelFaultFree(t *testing.T) {
	c := circuit.New(3).MAJ(0, 1, 2).Swap3(0, 1, 2).MAJInv(0, 1, 2)
	prog := CompileWide(c, noise.Noiseless, 1)
	a, b := NewWideState(3, 1), NewWideState(3, 1)
	r := rng.New(3)
	for w := range a.W {
		a.W[w] = r.Uint64()
		b.W[w] = a.W[w]
	}
	if faults := prog.Run(a, rng.New(4)); faults != 0 {
		t.Fatalf("noiseless Run reported %d faults", faults)
	}
	prog.RunNoiseless(b)
	for w := range a.W {
		if a.W[w] != b.W[w] {
			t.Fatalf("wire %d: noisy-path %x, noiseless %x", w, a.W[w], b.W[w])
		}
	}
}

// The Bernoulli-mask tests observe the lanes each op faults. The probe
// circuit is three Init3 ops on disjoint wire triples, so the grouped
// sampler's skip chain crosses ops. Init3 clears its wires, so a lane of
// a triple is nonzero after a run exactly when that op faulted the lane
// and the randomized bits were not all zero: probability 7p/8, iid over
// lanes and ops.
const probeOps = 3

func probeProgram(p float64) *WideProgram {
	return CompileWide(circuit.New(3*probeOps).Init3(0, 1, 2).Init3(3, 4, 5).Init3(6, 7, 8), noise.Uniform(p), 1)
}

// probeMasks runs prog once on st and returns each op's observed lane
// mask. Init3 clears its wires first, so st needs no reset between runs.
func probeMasks(prog *WideProgram, st WideState, r *rng.RNG) [probeOps]uint64 {
	prog.Run(st, r)
	var m [probeOps]uint64
	for i := range m {
		m[i] = st.W[3*i] | st.W[3*i+1] | st.W[3*i+2]
	}
	return m
}

// TestBernoulliMaskEdges: probabilities at or below 0 never fault, at or
// above 1 fault every lane of every op.
func TestBernoulliMaskEdges(t *testing.T) {
	r := rng.New(5)
	for _, tc := range []struct {
		p    float64
		want int
	}{{0, 0}, {-1, 0}, {1, probeOps * 64}, {2, probeOps * 64}} {
		prog := probeProgram(tc.p)
		for i := 0; i < 100; i++ {
			st := NewWideState(3*probeOps, 1)
			if got := prog.Run(st, r); got != tc.want {
				t.Fatalf("p=%v: %d fault events, want %d", tc.p, got, tc.want)
			}
		}
	}
}

// TestBernoulliMaskRate checks the per-lane fault fraction and that no
// lane is favored (the geometric-skip construction must stay uniform
// across positions).
func TestBernoulliMaskRate(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.5, 0.9} {
		prog := probeProgram(p)
		r := rng.New(uint64(1000 * p))
		const draws = 60000
		perLane := make([]int, 64)
		total := 0
		st := NewWideState(3*probeOps, 1)
		for i := 0; i < draws; i++ {
			for _, m := range probeMasks(prog, st, r) {
				total += bits.OnesCount64(m)
				for m != 0 {
					l := bits.TrailingZeros64(m)
					perLane[l]++
					m &= m - 1
				}
			}
		}
		q := 7 * p / 8
		n := float64(draws * probeOps * 64)
		rate := float64(total) / n
		tol := 4 * math.Sqrt(q*(1-q)/n) // ±4σ
		if math.Abs(rate-q) > tol {
			t.Errorf("p=%v: overall rate %v, want %v (tolerance %v)", p, rate, q, tol)
		}
		perLaneN := float64(draws * probeOps)
		laneTol := 5 * math.Sqrt(q*(1-q)/perLaneN)
		for l, c := range perLane {
			lr := float64(c) / perLaneN
			if math.Abs(lr-q) > laneTol {
				t.Errorf("p=%v: lane %d rate %v, want %v (tolerance %v)", p, l, lr, q, laneTol)
			}
		}
	}
}

// TestRunFaultRate checks that fault events occur at the modeled per-op
// per-lane rate in a one-word block.
func TestRunFaultRate(t *testing.T) {
	const g = 0.05
	c := circuit.New(3)
	for i := 0; i < 50; i++ {
		c.MAJ(0, 1, 2)
	}
	prog := CompileWide(c, noise.Uniform(g), 1)
	r := rng.New(7)
	total := 0
	const batches = 400
	for i := 0; i < batches; i++ {
		st := NewWideState(3, 1)
		total += prog.Run(st, r)
	}
	n := float64(batches * 50 * 64)
	rate := float64(total) / n
	if tol := 4 * math.Sqrt(g*(1-g)/n); math.Abs(rate-g) > tol {
		t.Fatalf("fault rate %v, want %v ± %v", rate, g, tol)
	}
}

// TestRunAlwaysFaultsUniform mirrors sim.TestRunNoisyAlwaysFaults: with
// g = 1 every lane faults on the single op and the 3-bit outputs must be
// uniform over the 8 local states.
func TestRunAlwaysFaultsUniform(t *testing.T) {
	c := circuit.New(3).MAJ(0, 1, 2)
	prog := CompileWide(c, noise.Uniform(1), 1)
	r := rng.New(9)
	counts := make(map[uint64]int)
	const batches = 200
	for i := 0; i < batches; i++ {
		st := NewWideState(3, 1)
		if faults := prog.Run(st, r); faults != 64 {
			t.Fatalf("g=1 batch had %d fault events, want 64", faults)
		}
		for lane := 0; lane < 64; lane++ {
			var s uint64
			for w := 0; w < 3; w++ {
				s |= st.W[w] >> uint(lane) & 1 << uint(w)
			}
			counts[s]++
		}
	}
	n := batches * 64
	if len(counts) != 8 {
		t.Fatalf("faulty outputs cover %d states, want 8", len(counts))
	}
	for s, c := range counts {
		f := float64(c) / float64(n)
		if math.Abs(f-0.125) > 0.02 {
			t.Fatalf("state %03b frequency %v, want ~1/8", s, f)
		}
	}
}

// TestEncodeDecode round-trips codewords through the lane-wise coder and
// checks that a single corrupted wire, any wire and any lane pattern,
// leaves every lane's decode intact at level >= 1.
func TestEncodeDecode(t *testing.T) {
	r := rng.New(13)
	for level := 0; level <= 2; level++ {
		n := code.BlockSize(level)
		wires := make([]int, n)
		for i := range wires {
			wires[i] = i
		}
		st := NewWideState(n, 1)
		vals := []uint64{r.Uint64()}
		out := make([]uint64, 1)
		st.EncodeBlock(wires, vals)
		if st.DecodeBlock(wires, out); out[0] != vals[0] {
			t.Fatalf("level %d: decoded %x, want %x", level, out[0], vals[0])
		}
		if level == 0 {
			continue
		}
		for w := 0; w < n; w++ {
			st.W[w] ^= r.Uint64()
			if st.DecodeBlock(wires, out); out[0] != vals[0] {
				t.Fatalf("level %d: single error on wire %d broke decode", level, w)
			}
			st.EncodeBlock(wires, vals)
		}
	}
}

func TestDecodeRejectsBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeBlock of a 4-wire block did not panic")
		}
	}()
	NewWideState(4, 1).DecodeBlock([]int{0, 1, 2, 3}, make([]uint64, 1))
}

// TestDecodeMatchesCode cross-checks random corrupted codewords against
// the scalar recursive decoder, lane by lane across a two-word block.
func TestDecodeMatchesCode(t *testing.T) {
	r := rng.New(17)
	const level, words = 2, 2
	n := code.BlockSize(level)
	wires := make([]int, n)
	for i := range wires {
		wires[i] = i
	}
	got := make([]uint64, words)
	for trial := 0; trial < 20; trial++ {
		st := NewWideState(n, words)
		for i := range st.W {
			st.W[i] = r.Uint64()
		}
		st.DecodeBlock(wires, got)
		for lane := 0; lane < 64*words; lane++ {
			k, bit := lane/64, uint(lane%64)
			sc := bitvec.New(n)
			for w := 0; w < n; w++ {
				sc.Set(w, st.Wire(w)[k]>>bit&1 == 1)
			}
			if want := code.Decode(sc, wires, level); want != (got[k]>>bit&1 == 1) {
				t.Fatalf("trial %d lane %d: lanes decode %v, scalar %v",
					trial, lane, got[k]>>bit&1 == 1, want)
			}
		}
	}
}

// TestCompileClampsProbabilities: in a one-word block a fault probability
// above 1 clamps to 1, so every lane faults.
func TestCompileClampsProbabilities(t *testing.T) {
	prog := CompileWide(circuit.New(1).NOT(0), noise.IID{Gate: 7}, 1)
	if len(prog.samplers) != 1 || prog.samplers[0].p != 1 {
		t.Fatalf("fault probability not clamped to 1: %+v", prog.samplers)
	}
	if faults := prog.Run(NewWideState(1, 1), rng.New(1)); faults != 64 {
		t.Fatalf("clamped p=1 run had %d fault events, want 64", faults)
	}
}

func TestBroadcast(t *testing.T) {
	if Broadcast(true) != ^uint64(0) || Broadcast(false) != 0 {
		t.Fatal("Broadcast is not all-ones / all-zeros")
	}
}

// TestBernoulliMaskInfiniteLogq drives the skip sampler at its numeric
// edge: p = 1 precompiles to logq = log1p(-1) = -Inf, and every gap must
// come out 0 (fault the very next lane) rather than a NaN-derived value.
func TestBernoulliMaskInfiniteLogq(t *testing.T) {
	r := rng.New(9)
	logq := math.Log1p(-1.0)
	if !math.IsInf(logq, -1) {
		t.Fatalf("log1p(-1) = %v, want -Inf", logq)
	}
	for i := 0; i < 100; i++ {
		if g := geomGap(r, logq); g != 0 {
			t.Fatalf("p=1, logq=-Inf: gap = %d, want 0", g)
		}
	}
}

// TestBernoulliMaskTinyP checks the opposite extreme: at p = 1e-12 the
// geometric gap is ~1e12 lanes, so virtually every run must stay
// fault-free rather than losing the gap to float truncation and faulting
// spurious lanes.
func TestBernoulliMaskTinyP(t *testing.T) {
	prog := probeProgram(1e-12)
	r := rng.New(10)
	const draws = 200000
	total := 0
	for i := 0; i < draws; i++ {
		st := NewWideState(3*probeOps, 1)
		total += prog.Run(st, r)
	}
	// Expected fault events: draws·ops·64·p ≈ 4e-5. More than a couple
	// means the skip arithmetic is broken, not bad luck.
	if total > 2 {
		t.Fatalf("p=1e-12: %d fault events in %d runs (expected ~0)", total, draws)
	}
}

// TestBernoulliMaskChiSquareHalf is a goodness-of-fit check at p = 0.5,
// where the geometric skips degenerate to gap ~ Geometric(1/2) and any
// bias in the inversion or the lane walk would be largest. The per-lane
// observed counts are tested against Binomial(draws·ops, 7/16) with a
// chi-square statistic at 64 degrees of freedom.
func TestBernoulliMaskChiSquareHalf(t *testing.T) {
	prog := probeProgram(0.5)
	r := rng.New(11)
	const draws = 50000
	perLane := make([]int, 64)
	st := NewWideState(3*probeOps, 1)
	for i := 0; i < draws; i++ {
		for _, m := range probeMasks(prog, st, r) {
			for m != 0 {
				l := bits.TrailingZeros64(m)
				perLane[l]++
				m &= m - 1
			}
		}
	}
	const q = 7.0 / 16
	n := float64(draws * probeOps)
	chi2 := 0.0
	for _, c := range perLane {
		d := float64(c) - n*q
		chi2 += d * d / (n * q * (1 - q))
	}
	// 130 is far beyond the 99.99% quantile of χ²(64) ≈ 117; the seed is
	// fixed, so a failure is a real distributional defect.
	if chi2 > 130 {
		t.Fatalf("per-lane χ² = %v over 64 df (threshold 130): %v", chi2, perLane)
	}
}
