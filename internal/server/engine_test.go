package server

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"revft/internal/exp"
	"revft/internal/sweep"
)

// expDriver is the production recovery driver: exp.ShardableSweep, which
// validates the engine against exp.Engines.
func expDriver(spec JobSpec, grid []float64) (sweep.PointFunc, int, error) {
	p := exp.MCParams{Trials: spec.Trials, Workers: spec.Workers, Seed: spec.Seed, Engine: spec.Engine}
	return exp.ShardableSweep("recovery", grid, spec.MaxLevel, spec.Bits, p)
}

// TestRetiredLanesEngine pins the retired 64-lane engine name "lanes" at
// the server boundary: a fresh submission is a typed 400 invalid_spec,
// and a journaled non-terminal job replays to failed with a journaled
// "resume:" reason that a second restart reads back unchanged.
func TestRetiredLanesEngine(t *testing.T) {
	spec := JobSpec{Experiment: "recovery", GMin: 1e-3, GMax: 1e-2, Points: 3, Trials: 500, Seed: 1, Shards: 1, Engine: "lanes"}
	drivers := map[string]Driver{"recovery": expDriver}
	_, err := newTestServer(t, func(c *Config) { c.Drivers = drivers }).Submit(spec)
	rejectCode(t, err, CodeInvalidSpec, 400)

	// A server whose driver still accepted "lanes" admitted the job and
	// was drained with it parked mid-run.
	dir := t.TempDir()
	gate := make(chan struct{})
	defer close(gate)
	old, err := New(Config{DataDir: dir, Drivers: map[string]Driver{"recovery": blockingDriver(gate)}, PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := old.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := old.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	var reason string
	for restart := 1; restart <= 2; restart++ {
		srv, err := New(Config{DataDir: dir, Drivers: drivers, PoolWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := srv.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if got.State != StateFailed || !strings.HasPrefix(got.Error, "resume: ") || !strings.Contains(got.Error, `unknown engine "lanes"`) {
			t.Fatalf("restart %d: job = %s %q, want failed with a resume: unknown engine reason", restart, got.State, got.Error)
		}
		if restart == 1 {
			reason = got.Error
		} else if got.Error != reason {
			t.Fatalf("second restart reason %q, first %q", got.Error, reason)
		}
		// Exactly one failed record: the first replay journaled it and
		// the second read it back instead of failing the job again.
		path := filepath.Join(dir, "journal.jsonl")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := parseJournal(path, data)
		if err != nil {
			t.Fatal(err)
		}
		var failed []string
		for _, r := range recs {
			if r.Job == st.ID && r.Type == recFailed {
				failed = append(failed, r.Error)
			}
		}
		if len(failed) != 1 || failed[0] != reason {
			t.Fatalf("restart %d: journaled failures %q, want exactly [%q]", restart, failed, reason)
		}
	}
}
