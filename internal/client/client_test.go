package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"revft/internal/rng"
	"revft/internal/server"
	"revft/internal/stats"
	"revft/internal/sweep"
)

func testSpec() server.JobSpec {
	return server.JobSpec{
		Experiment: "fake", GMin: 1e-3, GMax: 1e-2,
		Points: 4, Trials: 500, Seed: 7, Shards: 2,
	}
}

func fastClient(base string) *Client {
	return &Client{
		BaseURL:      base,
		BaseDelay:    time.Millisecond,
		MaxDelay:     5 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
		Seed:         1,
	}
}

// fakeAPI is a minimal stateful stand-in for the server's HTTP API:
// a digest-indexed job table plus programmable POST behaviour.
type fakeAPI struct {
	mu    sync.Mutex
	jobs  []server.JobStatus
	posts int
	// refuse, while > 0, makes POST /jobs return the given status
	// (with optional Retry-After), decrementing per request.
	refuse     int
	refuseCode int
	retryAfter string
}

func (f *fakeAPI) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		out := []server.JobStatus{}
		d := r.URL.Query().Get("digest")
		for _, st := range f.jobs {
			if d == "" || st.SpecDigest == d {
				out = append(out, st)
			}
		}
		writeJSONTest(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.posts++
		if f.refuse > 0 {
			f.refuse--
			if f.retryAfter != "" {
				w.Header().Set("Retry-After", f.retryAfter)
			}
			writeJSONTest(w, f.refuseCode, map[string]string{"error": "queue_full", "reason": "synthetic overload"})
			return
		}
		var spec server.JobSpec
		_ = json.NewDecoder(r.Body).Decode(&spec)
		st := server.JobStatus{
			ID: "job-1", State: server.StateQueued,
			SpecDigest: spec.Digest(), Priority: spec.Priority,
		}
		f.jobs = append(f.jobs, st)
		writeJSONTest(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, st := range f.jobs {
			if st.ID == r.PathValue("id") {
				writeJSONTest(w, http.StatusOK, st)
				return
			}
		}
		writeJSONTest(w, http.StatusNotFound, map[string]string{"error": "not_found", "reason": "no such job"})
	})
	return mux
}

func writeJSONTest(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Submit must survive transient 503s: the refusals are retried with
// backoff and the eventual acceptance is returned.
func TestSubmitRetriesTransientRefusals(t *testing.T) {
	api := &fakeAPI{refuse: 2, refuseCode: http.StatusServiceUnavailable}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	st, err := fastClient(ts.URL).Submit(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" {
		t.Fatalf("submitted job = %+v", st)
	}
	if api.posts != 3 {
		t.Fatalf("POST attempts = %d, want 3 (2 refusals + 1 success)", api.posts)
	}
}

// A terminal 400 must surface immediately as a typed APIError, with no
// retries burned on a spec that can never be accepted.
func TestTerminalRefusalNotRetried(t *testing.T) {
	var posts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts++
			writeJSONTest(w, http.StatusBadRequest, map[string]string{"error": "invalid_spec", "reason": "trials 0: need at least 1"})
			return
		}
		writeJSONTest(w, http.StatusOK, []server.JobStatus{})
	}))
	defer ts.Close()

	_, err := fastClient(ts.URL).Submit(context.Background(), testSpec())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.Code != "invalid_spec" || apiErr.Retryable() {
		t.Fatalf("apiErr = %+v", apiErr)
	}
	if posts != 1 {
		t.Fatalf("POST attempts = %d, want exactly 1", posts)
	}
}

// The server's Retry-After must floor the backoff: with millisecond
// client delays and a 1s hint, the retry cannot land early.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	api := &fakeAPI{refuse: 1, refuseCode: http.StatusTooManyRequests, retryAfter: "1"}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	start := time.Now()
	if _, err := fastClient(ts.URL).Submit(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < time.Second {
		t.Fatalf("retry landed after %v, want >= 1s (Retry-After floor)", el)
	}
	if api.posts != 2 {
		t.Fatalf("POST attempts = %d, want 2", api.posts)
	}
}

// A client that crashes after submitting and restarts with the same spec
// must adopt the original job via the digest lookup, not duplicate it.
func TestCrashedClientAdoptsOriginalJob(t *testing.T) {
	api := &fakeAPI{}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	spec := testSpec()
	first, err := fastClient(ts.URL).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// "Crash": a brand-new client with no in-memory state resubmits.
	second, err := fastClient(ts.URL).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("resubmit created job %s, want adopted %s", second.ID, first.ID)
	}
	if api.posts != 1 {
		t.Fatalf("POST attempts = %d, want 1 (second submit must adopt)", api.posts)
	}
}

// Adoption prefers a done job over an in-flight one: the result already
// exists, so polling the running duplicate would only waste time.
func TestAdoptPrefersDoneJob(t *testing.T) {
	spec := testSpec()
	api := &fakeAPI{jobs: []server.JobStatus{
		{ID: "running-1", State: server.StateRunning, SpecDigest: spec.Digest()},
		{ID: "done-1", State: server.StateDone, SpecDigest: spec.Digest()},
		{ID: "failed-1", State: server.StateFailed, SpecDigest: spec.Digest()},
	}}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	st, err := fastClient(ts.URL).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "done-1" {
		t.Fatalf("adopted %s, want done-1", st.ID)
	}
	if api.posts != 0 {
		t.Fatalf("POST attempts = %d, want 0", api.posts)
	}
}

// Failed and cancelled jobs are not adopted: resubmitting after a
// failure must genuinely create a fresh job.
func TestFailedJobsNotAdopted(t *testing.T) {
	spec := testSpec()
	api := &fakeAPI{jobs: []server.JobStatus{
		{ID: "failed-1", State: server.StateFailed, SpecDigest: spec.Digest()},
		{ID: "cancelled-1", State: server.StateCancelled, SpecDigest: spec.Digest()},
	}}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	st, err := fastClient(ts.URL).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" || api.posts != 1 {
		t.Fatalf("adopted %s with %d posts, want fresh job-1 via 1 POST", st.ID, api.posts)
	}
}

// Wait surfaces a failed terminal state as a typed JobFailedError
// carrying the final status.
func TestWaitReportsFailedJob(t *testing.T) {
	api := &fakeAPI{jobs: []server.JobStatus{
		{ID: "job-9", State: server.StateFailed, Error: "deadline exceeded after 1s"},
	}}
	ts := httptest.NewServer(api.handler())
	defer ts.Close()

	_, err := fastClient(ts.URL).Wait(context.Background(), "job-9")
	var jf *JobFailedError
	if !errors.As(err, &jf) {
		t.Fatalf("err = %v, want *JobFailedError", err)
	}
	if jf.Status.State != server.StateFailed || jf.Status.Error == "" {
		t.Fatalf("failed status = %+v", jf.Status)
	}
}

// fakeDriver mirrors the server package's test experiment: estimates
// derive only from (seed, global point index, chunk), the seed-stability
// contract that makes results independent of scheduling.
func fakeDriver(spec server.JobSpec, grid []float64) (sweep.PointFunc, int, error) {
	seed := spec.Seed
	return func(ctx context.Context, pt, chunk, trials int) ([]stats.Bernoulli, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := rng.New(sweep.ChunkSeed(seed+uint64(pt)*1009, chunk))
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Bool(0.1) {
				hits++
			}
		}
		return []stats.Bernoulli{{Trials: trials, Successes: hits}}, nil
	}, spec.Points, nil
}

// The full round trip against a real server: Run submits, waits, and
// fetches the result; a second Run with the same spec converges on the
// same digest and byte-identical result without recomputing.
func TestRunAgainstRealServer(t *testing.T) {
	srv, err := server.New(server.Config{
		DataDir:     t.TempDir(),
		Drivers:     map[string]server.Driver{"fake": fakeDriver},
		PoolWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spec := testSpec()
	c := fastClient(ts.URL)
	st, data, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone || st.SpecDigest != spec.Digest() {
		t.Fatalf("first run status = %+v", st)
	}
	var res server.Result
	if err := json.Unmarshal(data, &res); err != nil || len(res.Points) != spec.Points {
		t.Fatalf("result decode: %v (%d points)", err, len(res.Points))
	}

	// Idempotent resubmit: a fresh client (as after a crash) converges on
	// the same result bytes without creating a competing computation.
	st2, data2, err := fastClient(ts.URL).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.SpecDigest != st.SpecDigest {
		t.Fatalf("resubmit digest %s != %s", st2.SpecDigest, st.SpecDigest)
	}
	if string(data2) != string(data) {
		t.Fatalf("resubmit result differs:\n%s\nvs\n%s", data2, data)
	}
}

// sleepyDriver is fakeDriver with a fixed wall time per point, so a job's
// duration is known in advance.
func sleepyDriver(per time.Duration) server.Driver {
	return func(spec server.JobSpec, grid []float64) (sweep.PointFunc, int, error) {
		inner, n, err := fakeDriver(spec, grid)
		if err != nil {
			return nil, 0, err
		}
		return func(ctx context.Context, pt, chunk, trials int) ([]stats.Bernoulli, error) {
			select {
			case <-time.After(per):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return inner(ctx, pt, chunk, trials)
		}, n, nil
	}
}

// realServer serves a server.Server with the fake and sleepy experiments
// on a loopback test listener.
func realServer(t *testing.T, per time.Duration) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		DataDir:     t.TempDir(),
		Drivers:     map[string]server.Driver{"fake": fakeDriver, "sleepy": sleepyDriver(per)},
		PoolWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close()
	})
	return ts
}

// Against a server that ignores ?wait= and answers at once, Wait falls
// back to polls spaced by PollInterval: no busy loop.
func TestWaitFallbackPollsAreSpaced(t *testing.T) {
	api := &fakeAPI{jobs: []server.JobStatus{{ID: "job-1", State: server.StateRunning}}}
	var gets int
	mux := http.NewServeMux()
	mux.Handle("/", api.handler())
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		api.mu.Lock()
		gets++
		api.mu.Unlock()
		api.handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	time.AfterFunc(200*time.Millisecond, func() {
		api.mu.Lock()
		api.jobs[0].State = server.StateDone
		api.mu.Unlock()
	})

	c := fastClient(ts.URL)
	c.PollInterval = 20 * time.Millisecond
	start := time.Now()
	st, err := c.Wait(context.Background(), "job-1")
	elapsed := time.Since(start)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
	api.mu.Lock()
	defer api.mu.Unlock()
	if limit := int(elapsed/c.PollInterval) + 2; gets > limit {
		t.Fatalf("%d status requests in %v, want at most %d (elapsed/PollInterval + 2)", gets, elapsed, limit)
	}
}

// Against a real server, Run of a ~50 ms job returns within milliseconds
// of the done transition with the default PollInterval: the long-poll,
// not the 300 ms fallback spacing, paces Wait. The best of three runs
// (fresh seeds, so none is a cache hit or an adoption) must beat 150 ms,
// which keeps a loaded test host from failing it while a Wait that slept
// even once would take over 300 ms on every run.
func TestRunReturnsWhenJobFinishes(t *testing.T) {
	ts := realServer(t, 10*time.Millisecond)
	c := &Client{BaseURL: ts.URL}
	best := time.Hour
	for i := 0; i < 3; i++ {
		spec := testSpec()
		spec.Experiment, spec.Points, spec.Shards, spec.Seed = "sleepy", 5, 1, uint64(100+i)
		start := time.Now()
		st, data, err := c.Run(context.Background(), spec)
		took := time.Since(start)
		if err != nil || st.State != server.StateDone || len(data) == 0 {
			t.Fatalf("Run = %+v, %d bytes, %v", st, len(data), err)
		}
		best = min(best, took)
	}
	if best >= 150*time.Millisecond {
		t.Fatalf("best Run of a ~50ms job took %v, want < 150ms", best)
	}
}

// Cancelling the context while a long-poll is outstanding returns the
// context error promptly, not after the poll's wait.
func TestWaitCancelDuringLongPoll(t *testing.T) {
	ts := realServer(t, time.Hour)
	c := &Client{BaseURL: ts.URL}
	spec := testSpec()
	spec.Experiment = "sleepy"
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err = c.Wait(ctx, st.ID)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Wait returned %v after the cancel at 50ms", took)
	}
}

// A Client.HTTP with a short Timeout shortens the long-poll under it, so
// no status request ever times out: with a one-attempt budget a single
// timeout would fail Wait.
func TestWaitShortHTTPTimeout(t *testing.T) {
	ts := realServer(t, 100*time.Millisecond)
	c := &Client{BaseURL: ts.URL, HTTP: &http.Client{Timeout: 150 * time.Millisecond}, MaxAttempts: 1}
	spec := testSpec()
	spec.Experiment, spec.Points, spec.Shards = "sleepy", 5, 1
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(context.Background(), st.ID)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
}

// Transient status errors still spend the attempt budget: a server that
// answers every status request 503 fails Wait after MaxAttempts tries.
func TestWaitTransientErrorsSpendAttempts(t *testing.T) {
	var gets int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gets++
		mu.Unlock()
		writeJSONTest(w, http.StatusServiceUnavailable, map[string]string{"error": "draining", "reason": "synthetic"})
	}))
	defer ts.Close()
	c := fastClient(ts.URL)
	c.MaxAttempts = 3
	_, err := c.Wait(context.Background(), "job-1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("Wait = %v, want the wrapped 503", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gets != 3 {
		t.Fatalf("%d status requests, want 3 (MaxAttempts)", gets)
	}
}
