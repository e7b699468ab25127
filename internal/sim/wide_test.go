package sim

import (
	"context"
	"math/bits"
	"testing"

	"revft/internal/rng"
	"revft/internal/telemetry"
)

// TestMonteCarloWideMatchesLanesAtOneWord pins the harness contract at
// words = 1 against a sequential model of it: no more workers than
// 64-lane batches, worker w draws from the (w+1)-th jump of
// rng.New(seed), runs ceil(n_w/64) batches of its n_w trials, and counts
// only the first n_w lanes. Any change to RNG consumption, work splitting
// or tail masking breaks bit-identity.
func TestMonteCarloWideMatchesLanesAtOneWord(t *testing.T) {
	batch := func(r *rng.RNG, hit []uint64) { hit[0] = r.Uint64() }
	for _, trials := range []int{64, 130, 1000, 20011} {
		for _, workers := range []int{1, 3} {
			got := MonteCarloWide(trials, workers, 42, 1, batch)
			used := min(workers, (trials+63)/64)
			master := rng.New(42)
			hits := 0
			for w := 0; w < used; w++ {
				r := master.Jump()
				n := trials / used
				if w < trials%used {
					n++
				}
				for ; n > 0; n -= 64 {
					hit := []uint64{0}
					batch(r, hit)
					maskLanes(hit, n)
					hits += bits.OnesCount64(hit[0])
				}
			}
			if got.Trials != trials || got.Successes != hits {
				t.Fatalf("trials=%d workers=%d: harness %+v, model %d hits", trials, workers, got, hits)
			}
		}
	}
}

func allHits(r *rng.RNG, hit []uint64) {
	for i := range hit {
		hit[i] = ^uint64(0)
	}
}

// TestMonteCarloLanesPartialBatchCountsExactTrials keeps its name from the
// retired 64-lane harness: at words = 1, with trials not a multiple of 64
// and an all-hits batch, the excess lanes of the final partial batch must
// be masked out, so the hit count equals the trial count exactly.
func TestMonteCarloLanesPartialBatchCountsExactTrials(t *testing.T) {
	for _, trials := range []int{1, 63, 65, 130, 20011} {
		res := MonteCarloWide(trials, 1, 7, 1, allHits)
		if res.Trials != trials || res.Successes != trials {
			t.Fatalf("trials=%d: counted %d trials, %d hits; want %d of each",
				trials, res.Trials, res.Successes, trials)
		}
	}
}

// TestMonteCarloWidePartialBlockCountsExactTrials is the same property on
// the K-word engines: the partial final block's excess words and partial
// word are both masked.
func TestMonteCarloWidePartialBlockCountsExactTrials(t *testing.T) {
	for _, words := range []int{4, 8} {
		for _, trials := range []int{1, 63, 64, 65, 64*words - 1, 64*words + 1, 1000, 20011} {
			res := MonteCarloWide(trials, 1, 7, words, allHits)
			if res.Trials != trials || res.Successes != trials {
				t.Fatalf("words=%d trials=%d: counted %d trials, %d hits; want %d of each",
					words, trials, res.Trials, res.Successes, trials)
			}
		}
	}
}

// TestMonteCarloWideRejectsBadWords checks the words validation surfaces
// as an error on the Ctx path.
func TestMonteCarloWideRejectsBadWords(t *testing.T) {
	_, err := MonteCarloWideCtx(context.Background(), 100, 1, 1, 0, func(r *rng.RNG, hit []uint64) {})
	if err == nil {
		t.Fatal("words = 0 was not rejected")
	}
}

// TestMonteCarloWideTelemetrySlotsVsTrials pins the slot-vs-trial
// accounting: lanes.trials counts counted trials, lanes.slots counts
// simulated lane slots including the masked excess of the partial final
// block.
func TestMonteCarloWideTelemetrySlotsVsTrials(t *testing.T) {
	reg := telemetry.New()
	ctx := telemetry.NewContext(context.Background(), reg)
	const words, trials = 4, 300 // 2 blocks of 256: 512 slots
	res, err := MonteCarloWideCtx(ctx, trials, 1, 5, words, func(r *rng.RNG, hit []uint64) {
		for i := range hit {
			hit[i] = ^uint64(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != trials || res.Successes != trials {
		t.Fatalf("counted %d/%d, want %d/%d", res.Successes, res.Trials, trials, trials)
	}
	if got := reg.Counter("lanes.trials").Load(); got != trials {
		t.Fatalf("lanes.trials = %d, want %d", got, trials)
	}
	if got := reg.Counter("lanes.slots").Load(); got != 512 {
		t.Fatalf("lanes.slots = %d, want 512", got)
	}
}

func TestMaskLanes(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want [3]uint64
	}{
		{0, [3]uint64{0, 0, 0}},
		{1, [3]uint64{1, 0, 0}},
		{64, [3]uint64{^uint64(0), 0, 0}},
		{65, [3]uint64{^uint64(0), 1, 0}},
		{128, [3]uint64{^uint64(0), ^uint64(0), 0}},
		{192, [3]uint64{^uint64(0), ^uint64(0), ^uint64(0)}},
	} {
		hit := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
		maskLanes(hit, tc.n)
		if [3]uint64{hit[0], hit[1], hit[2]} != tc.want {
			t.Fatalf("maskLanes(n=%d) = %x, want %x", tc.n, hit, tc.want)
		}
	}
}
