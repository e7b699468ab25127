package sim

import (
	"fmt"
	"testing"

	"revft/internal/bitvec"
	"revft/internal/circuit"
	"revft/internal/lanes"
	"revft/internal/noise"
	"revft/internal/rng"
	"revft/internal/stats"
)

// Determinism contract for both Monte Carlo harnesses: a fixed
// (seed, workers) pair is bit-identical across runs, distinct seeds
// differ, and distinct worker counts — which re-partition the jumped RNG
// streams — stay statistically consistent.

// determinismCircuit is a small noisy trial with realistic RNG
// consumption: three MAJ layers on six wires.
func determinismCircuit() *circuit.Circuit {
	c := circuit.New(6)
	c.MAJ(0, 1, 2).MAJ(3, 4, 5).MAJ(0, 3, 1).MAJ(2, 4, 5)
	return c
}

func checkHarnessDeterminism(t *testing.T, name string, run func(trials, workers int, seed uint64) stats.Bernoulli) {
	t.Helper()
	const trials = 30000
	for _, w := range []int{1, 3, 8} {
		a, b := run(trials, w, 42), run(trials, w, 42)
		if a != b {
			t.Errorf("%s: workers=%d seed=42 gave %v then %v", name, w, a, b)
		}
		if c := run(trials, w, 43); a == c {
			t.Errorf("%s: workers=%d seeds 42 and 43 gave identical %v (suspicious)", name, w, a)
		}
	}
	// Different worker counts repartition the streams, so the estimates
	// differ bit-for-bit but must agree statistically: every pair of
	// wide (z = 3.5) Wilson intervals overlaps.
	workerCounts := []int{1, 2, 5, 16}
	ests := make([]stats.Bernoulli, len(workerCounts))
	for i, w := range workerCounts {
		ests[i] = run(trials, w, 42)
		if ests[i].Trials != trials {
			t.Fatalf("%s: workers=%d ran %d trials, want %d", name, w, ests[i].Trials, trials)
		}
	}
	for i := range ests {
		for j := i + 1; j < len(ests); j++ {
			lo1, hi1 := ests[i].Wilson(3.5)
			lo2, hi2 := ests[j].Wilson(3.5)
			if lo1 > hi2 || lo2 > hi1 {
				t.Errorf("%s: workers=%d (%v) and workers=%d (%v) are statistically inconsistent",
					name, workerCounts[i], ests[i], workerCounts[j], ests[j])
			}
		}
	}
}

func TestMonteCarloDeterminismContract(t *testing.T) {
	c := determinismCircuit()
	m := noise.Uniform(0.02)
	checkHarnessDeterminism(t, "MonteCarlo", func(trials, workers int, seed uint64) stats.Bernoulli {
		return MonteCarlo(trials, workers, seed, func(r *rng.RNG) bool {
			st := bitvec.New(c.Width())
			RunNoisy(c, st, m, r)
			return st.Uint(0, c.Width()) != c.Eval(0)
		})
	})
}

// laneBatch is c's failure trial from the all-zero input on a words-wide
// lane block.
func laneBatch(c *circuit.Circuit, m noise.Model, words int) LaneBatch {
	prog := lanes.CompileWide(c, m, words)
	want := c.Eval(0)
	return func(r *rng.RNG, hit []uint64) {
		st := lanes.NewWideState(c.Width(), words)
		prog.Run(st, r)
		for k := range hit {
			hit[k] = 0
			for w := 0; w < c.Width(); w++ {
				hit[k] |= st.Wire(w)[k] ^ lanes.Broadcast(want>>uint(w)&1 == 1)
			}
		}
	}
}

func checkWideDeterminism(t *testing.T, words int) {
	t.Helper()
	batch := laneBatch(determinismCircuit(), noise.Uniform(0.02), words)
	checkHarnessDeterminism(t, fmt.Sprintf("MonteCarloWide(words=%d)", words), func(trials, workers int, seed uint64) stats.Bernoulli {
		return MonteCarloWide(trials, workers, seed, words, batch)
	})
}

// TestMonteCarloLanesDeterminismContract keeps its name from the retired
// 64-lane harness; it checks the contract on one-word wide blocks.
func TestMonteCarloLanesDeterminismContract(t *testing.T) { checkWideDeterminism(t, 1) }

func TestMonteCarloWideDeterminismContract(t *testing.T) { checkWideDeterminism(t, 4) }

// TestMonteCarloEnginesAgree pins the two harnesses against each other on
// the same trial semantics: the scalar and lane estimates of one noisy
// circuit's failure rate must have overlapping 95% Wilson intervals.
func TestMonteCarloEnginesAgree(t *testing.T) {
	c := determinismCircuit()
	m := noise.Uniform(0.02)
	want := c.Eval(0)
	const trials = 60000
	scalar := MonteCarlo(trials, 4, 42, func(r *rng.RNG) bool {
		st := bitvec.New(c.Width())
		RunNoisy(c, st, m, r)
		return st.Uint(0, c.Width()) != want
	})
	lane := MonteCarloWide(trials, 4, 42, 1, laneBatch(c, m, 1))
	lo1, hi1 := scalar.Wilson(1.96)
	lo2, hi2 := lane.Wilson(1.96)
	if lo1 > hi2 || lo2 > hi1 {
		t.Fatalf("engines disagree: scalar %v, lanes %v", scalar, lane)
	}
}

func TestMonteCarloWideEdges(t *testing.T) {
	allFail := func(_ *rng.RNG, hit []uint64) { hit[0] = ^uint64(0) }
	if got := MonteCarloWide(0, 4, 1, 1, allFail); got.Trials != 0 {
		t.Fatalf("zero trials gave %v", got)
	}
	// Partial final batch: only the counted lanes contribute.
	got := MonteCarloWide(3, 16, 1, 1, allFail)
	if got.Trials != 3 || got.Successes != 3 {
		t.Fatalf("tiny run gave %v", got)
	}
	// workers <= 0 uses GOMAXPROCS.
	got = MonteCarloWide(100, 0, 1, 1, func(_ *rng.RNG, hit []uint64) { hit[0] = 0 })
	if got.Trials != 100 || got.Successes != 0 {
		t.Fatalf("auto workers gave %v", got)
	}
	// 7 workers, 1000 trials: remainder spread; every trial counted once.
	got = MonteCarloWide(1000, 7, 9, 1, allFail)
	if got.Successes != 1000 {
		t.Fatalf("counted %d trials, want 1000", got.Successes)
	}
}
