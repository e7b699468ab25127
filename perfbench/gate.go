package main

// The correctness gate. Every operation's output is checked before it
// counts as a success:
//   - level-0 and level-1 gadget estimates (the recovery experiment, and
//     the levels experiment's first two rows) must overlap the exact fault
//     enumeration's bounds within a z = 5 Wilson interval;
//   - every estimate is well formed, and a sweep has every point;
//   - a result served as a cache hit must equal, point by point and byte
//     for byte, the same ε values of its freshly computed superset;
//   - an adopted repeat must be byte-identical to the original result.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"revft/internal/core"
	"revft/internal/exact"
	"revft/internal/gate"
	"revft/internal/server"
	"revft/internal/stats"
)

// gateZ is the Wilson z of the oracle check: a correct engine fails it
// with probability about 6e-7 per estimate, so the thousands of checks in
// a run raise no false alarm.
const gateZ = 5

var (
	oracleOnce sync.Once
	oraclePoly [2]*exact.Poly // by gadget level
	oracleErr  error
)

// oracles enumerates the level-0 gadget fully and the level-1 gadget to
// weight 3, whose tail bound is tight across the benchmark's g range.
func oracles() ([2]*exact.Poly, error) {
	oracleOnce.Do(func() {
		for l, w := range []int{0, 3} {
			oraclePoly[l], oracleErr = exact.Enumerate(exact.Gadget(core.NewGadget(gate.MAJ, l)), exact.Options{MaxWeight: w})
			if oracleErr != nil {
				return
			}
		}
	})
	return oraclePoly, oracleErr
}

// checkOracle checks one gadget estimate at g against the exact bounds.
func checkOracle(level int, g float64, e stats.Bernoulli) error {
	polys, err := oracles()
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	lo, hi := polys[level].Bounds(g)
	wlo, whi := e.Wilson(gateZ)
	if whi < lo || wlo > hi {
		return fmt.Errorf("level-%d estimate %d/%d at g=%g: Wilson(z=%d) [%.4g, %.4g] misses exact [%.4g, %.4g]",
			level, e.Successes, e.Trials, g, gateZ, wlo, whi, lo, hi)
	}
	return nil
}

// checkEst checks an estimate is well formed and within the ceiling.
func checkEst(e stats.Bernoulli, maxTrials int) error {
	if e.Trials < 1 || e.Successes < 0 || e.Successes > e.Trials || (maxTrials > 0 && e.Trials > maxTrials) {
		return fmt.Errorf("malformed estimate %d/%d (ceiling %d)", e.Successes, e.Trials, maxTrials)
	}
	return nil
}

// checkSweep checks a finished sweep read back from its checkpoint.
func checkSweep(sz sizes, run *sweepRun) error {
	gs := stats.LogSpace(sz.GMin, sz.GMax, sz.GridPoints)
	points, ests := len(gs), 1
	switch run.kind {
	case "levels":
		points = (sz.MaxLevel + 1) * len(gs)
	case "adder":
		ests = 2
	}
	if len(run.ck.Done) != points {
		return fmt.Errorf("%s sweep: %d points in the final checkpoint, want %d", run.kind, len(run.ck.Done), points)
	}
	for i, pr := range run.ck.Done {
		if pr.Index != i || pr.Partial || len(pr.Ests) != ests {
			return fmt.Errorf("%s sweep: malformed point %d: %+v", run.kind, i, pr)
		}
		for _, e := range pr.Ests {
			if err := checkEst(e, sz.MaxTrials); err != nil {
				return fmt.Errorf("%s sweep point %d: %w", run.kind, i, err)
			}
		}
		g := gs[i%len(gs)]
		level := -1
		switch run.kind {
		case "recovery":
			level = 1
		case "levels":
			level = i / len(gs)
		}
		if level == 0 || level == 1 {
			if err := checkOracle(level, g, pr.Ests[0]); err != nil {
				return fmt.Errorf("%s sweep point %d: %w", run.kind, i, err)
			}
		}
	}
	return nil
}

// checkJobResult checks a service result against its spec: the grid, a
// complete point set, well-formed estimates, and the oracle for recovery.
func checkJobResult(spec server.JobSpec, data []byte) (*server.Result, error) {
	var res server.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("result does not parse: %w", err)
	}
	grid := spec.Grid()
	if res.SpecDigest != spec.Digest() || len(res.Grid) != len(grid) {
		return nil, fmt.Errorf("result is for digest %.12s with %d grid points, want %.12s with %d", res.SpecDigest, len(res.Grid), spec.Digest(), len(grid))
	}
	for i, g := range grid {
		if math.Float64bits(res.Grid[i]) != math.Float64bits(g) {
			return nil, fmt.Errorf("result grid[%d] = %v, want %v", i, res.Grid[i], g)
		}
	}
	if len(res.Points) != len(grid) {
		return nil, fmt.Errorf("result has %d points, want %d", len(res.Points), len(grid))
	}
	for i, p := range res.Points {
		if p.Index != i || len(p.Ests) == 0 {
			return nil, fmt.Errorf("malformed result point %d", i)
		}
		for _, e := range p.Ests {
			if err := checkEst(e, spec.Trials); err != nil {
				return nil, fmt.Errorf("result point %d: %w", i, err)
			}
		}
		if spec.Experiment == "recovery" {
			if err := checkOracle(1, grid[i], p.Ests[0]); err != nil {
				return nil, fmt.Errorf("result point %d: %w", i, err)
			}
		}
	}
	return &res, nil
}

// pointBytes maps each ε of a result to its point's estimates, encoded.
func pointBytes(res *server.Result) (map[uint64][]byte, error) {
	out := make(map[uint64][]byte, len(res.Grid))
	for i, g := range res.Grid {
		b, err := json.Marshal(struct {
			Ests    []stats.Bernoulli `json:"ests"`
			Stopped bool              `json:"stopped"`
		}{res.Points[i].Ests, res.Points[i].Stopped})
		if err != nil {
			return nil, err
		}
		out[math.Float64bits(g)] = b
	}
	return out, nil
}

// checkSubset checks that every point of a cache-hit result equals the
// same ε's point of the superset it was served from.
func checkSubset(hit *server.Result, superset map[uint64][]byte) error {
	got, err := pointBytes(hit)
	if err != nil {
		return err
	}
	for i, g := range hit.Grid {
		want, ok := superset[math.Float64bits(g)]
		if !ok {
			return fmt.Errorf("cache hit point at g=%v is not in its superset", g)
		}
		if !bytes.Equal(got[math.Float64bits(g)], want) {
			return fmt.Errorf("cache hit point %d at g=%v is %s, superset has %s", i, g, got[math.Float64bits(g)], want)
		}
	}
	return nil
}

// checkRepeat checks an adopted repeat is the original result, byte for
// byte.
func checkRepeat(got, orig []byte) error {
	if !bytes.Equal(got, orig) {
		return fmt.Errorf("adopted repeat differs from the original result (%d vs %d bytes)", len(got), len(orig))
	}
	return nil
}
