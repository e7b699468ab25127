// Package lanes implements a bit-sliced execution engine for reversible
// circuits under the paper's randomizing fault channel.
//
// Where package sim advances one Monte Carlo trial at a time — a table
// lookup and a per-op uniform draw per gate — this engine packs
// independent trials into machine words: each wire of the simulated
// computer is a block of uint64s whose bit j of word k is the wire's value
// in trial lane 64k+j. Every gate in the set compiles to a short
// branch-free boolean word kernel (MAJ, per Figure 1, is two CNOT word-ops
// followed by a Toffoli word-op; Init3 clears its three words), so one
// kernel application advances every lane of the block at once. See
// wide.go for the compiler and interpreter.
//
// Faults keep the exact semantics of sim.RunNoisy, vectorized: after each
// op, an iid Bernoulli(p) set of lanes faults, and the faulted lanes of
// every target wire are replaced with uniform random bits. Faulting lanes
// are found by geometric skips, so for the small fault probabilities the
// experiments sweep (g ~ 1e-4..3e-2) the engine spends randomness only
// where faults actually occur.
//
// Randomness comes from the same jumped xoshiro256** streams as the scalar
// harness, so a fixed (seed, workers) pair reproduces results exactly.
package lanes

import (
	"fmt"

	"revft/internal/gate"
	"revft/internal/telemetry"
)

// Broadcast returns the word holding v in all 64 lanes.
func Broadcast(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// Instr carries the optional fault-injection instrumentation for
// WideProgram.RunInstr. Faults accumulates total (op, lane) fault events;
// OpFaults tallies them by gate location (slot i = source op i, labelled
// by circuit.OpLabels). Either field may be nil.
//
// The counts are per lane SLOT, not per counted trial: the engine always
// simulates every lane of a block, so when a harness discards excess
// lanes of a partial final batch (sim.MonteCarloWideCtx masks them out of
// the hit count), faults that fired in those discarded slots are still
// tallied here. Per-trial fault rates must therefore be normalized by the
// harness's simulated-slot count ("lanes.slots" in the sim telemetry),
// never by its counted-trial count ("lanes.trials"); the two differ
// whenever trials is not a multiple of the lane count.
//
// The counters are touched only when a fault event actually occurs, so at
// the small fault probabilities the experiments sweep the expected cost is
// a few atomic adds per block — the same place the engine already pays
// for fresh randomness — and the no-fault fast path is unchanged.
type Instr struct {
	Faults   *telemetry.Counter
	OpFaults *telemetry.CounterVec
}

// Majority returns the lane-wise majority of three words.
func Majority(a, b, c uint64) uint64 {
	return a&b | b&c | a&c
}

func isPowerOfThree(n int) bool {
	if n < 1 {
		return false
	}
	for n%3 == 0 {
		n /= 3
	}
	return n == 1
}

// Eval applies gate k's word kernel to the packed local words w, where
// w[i] holds the 64 lanes of local bit i. It is the lane-wise analogue of
// gate.Kind.Eval, used to compute ideal reference outputs for whole
// batches. len(w) must equal the gate's arity.
func Eval(k gate.Kind, w []uint64) {
	if len(w) != k.Arity() {
		panic(fmt.Sprintf("lanes: Eval of %s wants %d words, got %d", k, k.Arity(), len(w)))
	}
	switch k {
	case gate.NOT:
		w[0] = ^w[0]
	case gate.CNOT:
		w[1] ^= w[0]
	case gate.SWAP:
		w[0], w[1] = w[1], w[0]
	case gate.Toffoli:
		w[2] ^= w[0] & w[1]
	case gate.Fredkin:
		d := (w[1] ^ w[2]) & w[0]
		w[1] ^= d
		w[2] ^= d
	case gate.MAJ:
		// Figure 1: CNOT, CNOT, then Toffoli back onto the first bit.
		w[1] ^= w[0]
		w[2] ^= w[0]
		w[0] ^= w[1] & w[2]
	case gate.MAJInv:
		w[0] ^= w[1] & w[2]
		w[1] ^= w[0]
		w[2] ^= w[0]
	case gate.SWAP3:
		// Left rotation (a, b, c) -> (b, c, a).
		w[0], w[1], w[2] = w[1], w[2], w[0]
	case gate.SWAP3Inv:
		w[0], w[1], w[2] = w[2], w[0], w[1]
	case gate.Init3:
		w[0], w[1], w[2] = 0, 0, 0
	default:
		panic(fmt.Sprintf("lanes: no word kernel for %s", k))
	}
}
