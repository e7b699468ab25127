package sim

import (
	"context"

	"revft/internal/rng"
	"revft/internal/stats"
)

// LaneBatch simulates 64·len(hit) independent trial lanes at once on
// a K-word lane block, writing a hit mask into hit: bit j of hit[k] set
// means lane 64k+j's trial observed the counted event. It must draw all
// randomness from r and overwrite every word of hit — the harness reuses
// the block across batches.
type LaneBatch func(r *rng.RNG, hit []uint64)

// MonteCarloWide is the lane-block analogue of MonteCarlo: it runs trials
// independent lanes of batch across workers goroutines, each batch
// advancing 64·words trials, and aggregates the population count of the
// returned hit masks. Worker seeding follows MonteCarlo exactly — one
// jumped xoshiro256** stream per worker derived from seed — so results
// are reproducible for a fixed (seed, workers, words). The final batch of
// each worker may cover fewer trials than the block holds; its excess
// lanes are simulated but not counted, so every counted trial runs
// exactly once. workers <= 0 selects GOMAXPROCS. A panic inside batch
// propagates as a *TrialPanicError, and a words < 1 is an immediate
// panic. Use MonteCarloWideCtx for cancellation and errors.
func MonteCarloWide(trials, workers int, seed uint64, words int, batch LaneBatch) stats.Bernoulli {
	res, err := MonteCarloWideCtx(context.Background(), trials, workers, seed, words, batch)
	if err != nil {
		// The context never cancels, so the only possible errors are a
		// recovered trial panic and a bad words. Re-raise with diagnostics.
		panic(err)
	}
	return res.Bernoulli
}
