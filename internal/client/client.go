// Package client is the idempotent, retrying client for the revft-server
// HTTP API. It implements the server's backoff contract (see the Handler
// doc block in internal/server/http.go):
//
//   - submissions are idempotent by spec digest: before every submit —
//     first try and every retry — the client asks GET /jobs?digest= for
//     an already-accepted equivalent and adopts it instead of creating a
//     duplicate. A client that crashes after submitting and restarts
//     with the same spec resumes polling the original job.
//   - retryable refusals (HTTP 429, 503, and network errors) back off
//     with jittered exponential delays, floored by the server's
//     Retry-After header when present.
//   - terminal refusals (HTTP 400: the spec itself is wrong) surface
//     immediately as a typed *APIError and are never retried.
//   - Wait long-polls GET /jobs/{id}?wait=, so it returns within
//     milliseconds of the job's terminal transition. Only a server that
//     answers a long-poll early with a non-terminal status (one that
//     ignores ?wait=, or one that is draining) is polled at PollInterval.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"revft/internal/rng"
	"revft/internal/server"
)

// Client talks to one revft-server instance. The zero values of the
// tuning fields select the documented defaults; BaseURL is required.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying HTTP client; nil selects a 30s-timeout
	// default.
	HTTP *http.Client
	// MaxAttempts bounds tries per operation against retryable refusals
	// (429/503/network); <= 0 selects 8.
	MaxAttempts int
	// BaseDelay/MaxDelay shape the jittered exponential backoff between
	// attempts: full jitter on BaseDelay·2^attempt, capped at MaxDelay,
	// floored by the server's Retry-After. Defaults 200ms / 10s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// PollInterval spaces Wait's fallback polls, made only when a status
	// request came back non-terminal without long-polling; <= 0 selects
	// 300ms.
	PollInterval time.Duration
	// Seed makes the backoff jitter deterministic for tests; 0 seeds
	// from the spec digest at first use.
	Seed uint64
	// Logf, when non-nil, receives retry/adopt log lines.
	Logf func(format string, args ...any)

	mu  sync.Mutex
	rnd *rng.RNG
}

// APIError is a typed refusal from the server: the HTTP status, the
// machine-readable code from the JSON body (a server.Code* value for
// rejections), and the Retry-After hint when the server sent one.
type APIError struct {
	Status     int
	Code       string
	Reason     string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server refused (%d %s): %s", e.Status, e.Code, e.Reason)
}

// Retryable reports whether the refusal is a load condition worth
// retrying (429/503/5xx) as opposed to a terminal 4xx.
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// JobFailedError reports a job that reached a terminal state other than
// done.
type JobFailedError struct {
	Status server.JobStatus
}

func (e *JobFailedError) Error() string {
	return fmt.Sprintf("client: job %s %s: %s", e.Status.ID, e.Status.State, e.Status.Error)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 8
}

// backoff sleeps the jittered exponential delay for a just-failed
// attempt, honoring the server's Retry-After as a floor. It returns the
// context error if the wait is interrupted.
func (c *Client) backoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	base := c.BaseDelay
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	maxd := c.MaxDelay
	if maxd <= 0 {
		maxd = 10 * time.Second
	}
	d := base << uint(attempt)
	if d > maxd || d <= 0 {
		d = maxd
	}
	// Full jitter: uniform in (0, d]. Decorrelated clients spread their
	// retries instead of stampeding the instance that just shed them.
	c.mu.Lock()
	if c.rnd == nil {
		seed := c.Seed
		if seed == 0 {
			seed = uint64(time.Now().UnixNano())
		}
		c.rnd = rng.New(seed)
	}
	f := c.rnd.Float64()
	c.mu.Unlock()
	d = time.Duration(float64(d) * (0.1 + 0.9*f))
	if retryAfter > d {
		d = retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do issues one request and decodes the response. A non-2xx response
// returns *APIError; out, when non-nil, receives the decoded JSON body
// of a 2xx response (pass a *[]byte to capture it raw).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err // network error: retryable by isRetryable
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode}
		var eb struct {
			Code   string `json:"error"`
			Reason string `json:"reason"`
		}
		if json.Unmarshal(data, &eb) == nil {
			apiErr.Code, apiErr.Reason = eb.Code, eb.Reason
		}
		if apiErr.Reason == "" {
			apiErr.Reason = http.StatusText(resp.StatusCode)
		}
		if sec, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && sec > 0 {
			apiErr.RetryAfter = time.Duration(sec) * time.Second
		}
		return apiErr
	}
	switch v := out.(type) {
	case nil:
	case *[]byte:
		*v = data
	default:
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decode response: %w", err)
		}
	}
	return nil
}

// isRetryable classifies an attempt error: typed load refusals and
// network-level failures retry; terminal API refusals do not.
func isRetryable(err error) (bool, time.Duration) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Retryable(), apiErr.RetryAfter
	}
	// Anything that never produced an HTTP status — dial failure, reset,
	// timeout — is a network error: retryable, no server hint.
	return err != nil, 0
}

// Submit submits the spec idempotently and returns the accepted (or
// adopted) job status. Before the first try and every retry it looks up
// the spec digest; an existing non-failed job with the same digest is
// adopted instead of duplicated, so Submit-after-crash converges on the
// original job and a flood of identical retries creates one job total.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	digest := spec.Digest()
	body, err := json.Marshal(spec)
	if err != nil {
		return server.JobStatus{}, fmt.Errorf("client: encode spec: %w", err)
	}
	var last error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			_, retryAfter := isRetryable(last)
			if berr := c.backoff(ctx, attempt-1, retryAfter); berr != nil {
				return server.JobStatus{}, berr
			}
		}
		if st, ok := c.adopt(ctx, digest); ok {
			c.logf("adopted job %s for digest %.12s", st.ID, digest)
			return st, nil
		}
		var st server.JobStatus
		err := c.do(ctx, http.MethodPost, "/jobs", body, &st)
		if err == nil {
			return st, nil
		}
		if retry, _ := isRetryable(err); !retry {
			return server.JobStatus{}, err
		}
		c.logf("submit retry %d: %v", attempt+1, err)
		last = err
	}
	return server.JobStatus{}, fmt.Errorf("client: submit failed after %d attempts: %w", c.attempts(), last)
}

// adopt looks for an existing job with the digest worth resuming: done
// beats in-flight beats nothing; failed/cancelled jobs are skipped (a
// resubmission should genuinely re-run those).
func (c *Client) adopt(ctx context.Context, digest string) (server.JobStatus, bool) {
	var jobs []server.JobStatus
	if err := c.do(ctx, http.MethodGet, "/jobs?digest="+digest, nil, &jobs); err != nil {
		return server.JobStatus{}, false
	}
	var best server.JobStatus
	var found bool
	for _, st := range jobs {
		switch st.State {
		case server.StateDone:
			return st, true
		case server.StateQueued, server.StateRunning:
			best, found = st, true
		}
	}
	return best, found
}

// longPollWait is how long each of Wait's status requests asks the
// server to hold it: under server.MaxStatusWait, and under the HTTP
// client's Timeout by longPoll.
const longPollWait = 20 * time.Second

// longPoll returns the ?wait= for Wait's status requests: longPollWait,
// or half the HTTP client's Timeout when that is shorter, so the request
// never times out while the server holds it.
func (c *Client) longPoll() time.Duration {
	d := longPollWait
	if t := c.httpClient().Timeout; t > 0 && t/2 < d {
		d = t / 2
	}
	return d
}

// Wait long-polls until the job is terminal, retrying transient errors
// within the attempt budget (the budget resets on every successful
// request). A non-terminal answer that came back before the long-poll or
// PollInterval ran out, whichever is shorter, means the server did not
// hold the request; only then does Wait sleep PollInterval before asking
// again. It returns the terminal status; a non-done terminal state is a
// *JobFailedError.
func (c *Client) Wait(ctx context.Context, id string) (server.JobStatus, error) {
	poll := c.PollInterval
	if poll <= 0 {
		poll = 300 * time.Millisecond
	}
	lp := c.longPoll()
	path := "/jobs/" + id + "?" + url.Values{"wait": {lp.String()}}.Encode()
	fails := 0
	var last error
	for {
		asked := time.Now()
		var st server.JobStatus
		err := c.do(ctx, http.MethodGet, path, nil, &st)
		switch {
		case err == nil:
			fails = 0
			if st.State.Terminal() {
				if st.State != server.StateDone {
					return st, &JobFailedError{Status: st}
				}
				return st, nil
			}
			if time.Since(asked) >= min(lp, poll) {
				continue // the server held the request: ask again at once
			}
		case ctx.Err() != nil:
			return server.JobStatus{}, ctx.Err()
		default:
			if retry, _ := isRetryable(err); !retry {
				return server.JobStatus{}, err
			}
			fails++
			last = err
			if fails >= c.attempts() {
				return server.JobStatus{}, fmt.Errorf("client: wait failed after %d attempts: %w", fails, last)
			}
		}
		t := time.NewTimer(poll)
		select {
		case <-ctx.Done():
			t.Stop()
			return server.JobStatus{}, ctx.Err()
		case <-t.C:
		}
	}
}

// Result fetches a completed job's result.json, retrying transient
// errors.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	var last error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			_, retryAfter := isRetryable(last)
			if berr := c.backoff(ctx, attempt-1, retryAfter); berr != nil {
				return nil, berr
			}
		}
		var data []byte
		err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, &data)
		if err == nil {
			return data, nil
		}
		if retry, _ := isRetryable(err); !retry {
			return nil, err
		}
		last = err
	}
	return nil, fmt.Errorf("client: result failed after %d attempts: %w", c.attempts(), last)
}

// Run is the full idempotent round trip: Submit (or adopt), Wait, fetch
// the result. It returns the terminal status alongside the serialized
// result.json of a done job.
func (c *Client) Run(ctx context.Context, spec server.JobSpec) (server.JobStatus, []byte, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return st, nil, err
	}
	st, err = c.Wait(ctx, st.ID)
	if err != nil {
		return st, nil, err
	}
	data, err := c.Result(ctx, st.ID)
	return st, data, err
}
