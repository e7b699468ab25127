package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// serveStatus issues GET /jobs/{id}?<rawQuery> against the handler in
// process and returns the status code, the decoded body and the wall time
// the request took.
func serveStatus(t testing.TB, h http.Handler, id, rawQuery string) (int, map[string]any, time.Duration) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/jobs/"+id, nil)
	req.URL.RawQuery = rawQuery
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	took := time.Since(start)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET /jobs/%s?%s: body %q: %v", id, rawQuery, rec.Body.String(), err)
	}
	return rec.Code, body, took
}

// TestStatusLongPollReturnsOnDone: a ?wait= request on a running job
// answers as soon as the job finishes, not when the wait runs out.
func TestStatusLongPollReturnsOnDone(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, func(c *Config) { c.Drivers["blocking"] = blockingDriver(gate) })
	spec := testSpec()
	spec.Experiment = "blocking"
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if code, body, _ := serveStatus(t, h, st.ID, ""); code != 200 || State(body["state"].(string)).Terminal() {
		t.Fatalf("plain GET = %d %v, want 200 non-terminal", code, body)
	}
	time.AfterFunc(50*time.Millisecond, func() { close(gate) })
	code, body, took := serveStatus(t, h, st.ID, "wait=20s")
	if code != 200 || body["state"] != string(StateDone) {
		t.Fatalf("long-poll = %d %v, want 200 done", code, body)
	}
	if took > 10*time.Second {
		t.Fatalf("long-poll took %v; it must return on the done transition", took)
	}
	// A terminal job answers a long-poll at once.
	if _, _, took := serveStatus(t, h, st.ID, "wait=20s"); took > time.Second {
		t.Fatalf("long-poll on a done job took %v", took)
	}
}

// TestStatusWaitValues: hostile ?wait= values are typed 400s that never
// block, values above the cap are clamped, and unknown IDs stay 404.
func TestStatusWaitValues(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := newTestServer(t, func(c *Config) { c.Drivers["blocking"] = blockingDriver(gate) })
	s.statusWaitCap = 100 * time.Millisecond
	spec := testSpec()
	spec.Experiment = "blocking"
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct {
		id, query string
		code      int
		minTook   time.Duration
	}{
		{st.ID, "wait=abc", 400, 0},
		{st.ID, "wait=1e9", 400, 0},
		{st.ID, "wait=5", 400, 0},
		{st.ID, "wait=-1s", 400, 0},
		{st.ID, "wait=-1ns", 400, 0},
		{st.ID, "wait=9999999999999h", 400, 0},
		{st.ID, "wait=99999999999999999999ns", 400, 0},
		{st.ID, "wait=", 400, 0},
		{st.ID, "wait=0", 200, 0},
		{st.ID, "", 200, 0},
		{st.ID, "wait=30ms", 200, 30 * time.Millisecond},
		{st.ID, "wait=1h", 200, 100 * time.Millisecond}, // clamped to the cap
		{"nope", "wait=30ms", 404, 0},
		{"nope", "", 404, 0},
	} {
		code, body, took := serveStatus(t, h, tc.id, tc.query)
		if code != tc.code {
			t.Errorf("GET /jobs/%s?%s = %d %v, want %d", tc.id, tc.query, code, body, tc.code)
		}
		if code == 400 && body["error"] != CodeInvalidWait {
			t.Errorf("GET ?%s: error code %v, want %s", tc.query, body["error"], CodeInvalidWait)
		}
		if code == 200 && body["state"] != string(StateQueued) && body["state"] != string(StateRunning) {
			t.Errorf("GET ?%s: state %v, want non-terminal", tc.query, body["state"])
		}
		if took < tc.minTook || took > tc.minTook+2*time.Second {
			t.Errorf("GET /jobs/%s?%s took %v, want %v (+2s slack)", tc.id, tc.query, took, tc.minTook)
		}
	}
}

// FuzzStatusWait attacks the status route's query string: whatever it
// holds, the answer is 200, 400 or 404, and it never blocks past the cap.
func FuzzStatusWait(f *testing.F) {
	for _, q := range []string{
		"wait=abc", "wait=1e9", "wait=-1s", "wait=9999999999999h", "wait=1h",
		"wait=10ms", "wait=", "wait=0", "wait=%zz", "wait=1s&wait=abc", "wait=+5ms",
		"wait=.5ms", "wait=1h1m1s1ms1us1ns", "x=1", "",
	} {
		f.Add(q)
	}
	gate := make(chan struct{})
	f.Cleanup(func() { close(gate) })
	s, err := New(Config{
		DataDir:     f.TempDir(),
		Drivers:     map[string]Driver{"blocking": blockingDriver(gate)},
		PoolWorkers: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Close() })
	const limit = 20 * time.Millisecond
	s.statusWaitCap = limit
	spec := testSpec()
	spec.Experiment = "blocking"
	st, err := s.Submit(spec)
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, rawQuery string) {
		req := httptest.NewRequest(http.MethodGet, "/jobs/"+st.ID, nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		if took := time.Since(start); took > limit+2*time.Second {
			t.Fatalf("?%s blocked %v past the %v cap", rawQuery, took, limit)
		}
		switch rec.Code {
		case 200, 400, 404:
		default:
			t.Fatalf("?%s = %d: %s", rawQuery, rec.Code, rec.Body)
		}
	})
}

// TestShutdownReleasesLongPoll: with a capped long-poll in flight on a
// running job, http.Server.Shutdown followed by Drain — revft-server's
// order — finishes well under the cap, the long-poll answers with the
// job's non-terminal status, and the job resumes after a restart to the
// result an uninterrupted run produces.
func TestShutdownReleasesLongPoll(t *testing.T) {
	spec := testSpec()
	spec.Experiment = "blocking"

	open := make(chan struct{})
	close(open)
	ref := newTestServer(t, func(c *Config) { c.Drivers["blocking"] = blockingDriver(open) })
	rst, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref, rst.ID)
	want, err := ref.Result(rst.ID)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	gate := make(chan struct{})
	defer close(gate)
	a, err := New(Config{DataDir: dir, Drivers: map[string]Driver{"blocking": blockingDriver(gate)}, PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan struct{})
	api := a.Handler()
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait") {
			close(arrived)
		}
		api.ServeHTTP(w, r)
	})}
	hs.RegisterOnShutdown(a.BeginDrain)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	type answer struct {
		code int
		st   JobStatus
		err  error
	}
	polled := make(chan answer, 1)
	go func() {
		resp, gerr := http.Get("http://" + ln.Addr().String() + "/jobs/" + st.ID + "?wait=" + MaxStatusWait.String())
		if gerr != nil {
			polled <- answer{err: gerr}
			return
		}
		defer resp.Body.Close()
		var got JobStatus
		data, _ := io.ReadAll(resp.Body)
		uerr := json.Unmarshal(data, &got)
		polled <- answer{code: resp.StatusCode, st: got, err: uerr}
	}()
	<-arrived

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), MaxStatusWait)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve = %v", err)
	}
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Shutdown+Drain took %v with a %v long-poll in flight", took, MaxStatusWait)
	}
	ans := <-polled
	if ans.err != nil || ans.code != 200 || ans.st.ID != st.ID || ans.st.State.Terminal() {
		t.Fatalf("long-poll answer = %d %+v, %v; want 200 with the non-terminal status", ans.code, ans.st, ans.err)
	}
	if got, _ := a.Job(st.ID); got.State.Terminal() {
		t.Fatalf("drained job is %s; it must stay journaled non-terminal", got.State)
	}

	b := newTestServer(t, func(c *Config) {
		c.DataDir = dir
		c.Drivers["blocking"] = blockingDriver(open)
	})
	if fin := waitDone(t, b, st.ID); fin.State != StateDone || !fin.Resumed {
		t.Fatalf("after restart: %+v", fin)
	}
	data, err := b.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) {
		t.Errorf("resumed result differs from the uninterrupted run:\n got: %s\nwant: %s", data, want)
	}
}
