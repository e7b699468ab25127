package main

// Span tracing from outside the program: the benchmark's wrappers around
// its calls into each layer (an http.RoundTripper for the client, an
// http.Handler around the server's handler, a chaos.FS around every
// durable write path, and the sweep runner's per-point progress lines)
// record spans into an in-memory tracer. A layer's self time is its spans'
// durations minus the part of each interval that the span's children
// cover; self_frac.<layer> divides that by the operations' wall time.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"revft/internal/chaos"
)

// layers are the names self_frac.<layer> reports, in the order the
// program stacks them from the outside in. "bench" is the loop's own time
// inside an operation not covered by any layer span.
var layers = []string{"bench", "client", "server", "journal", "resultcache", "fs", "exp", "sweep", "sim"}

// inferParent marks a span recorded off the loop goroutine whose parent is
// resolved after the run: the smallest span of the same operation whose
// interval contains it.
const inferParent = -1

// spanHeader carries the client's request span to the server's handler
// wrapper, so the two halves of one HTTP request link up.
const spanHeader = "X-Perfbench-Span"

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory. All methods are safe on a nil
// tracer, which records nothing: untraced runs pass nil.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	spans    []span // spans[i].ID == i+1
	req      int    // the operation in flight
	cur      int    // innermost open span on the loop goroutine
	counts   map[string]int64
	resolved bool
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]int64{}}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// open starts a span on the loop goroutine as a child of the innermost
// open one and makes it the innermost; close ends it.
func (t *tracer) open(name, layer string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.cur, Req: t.req, Name: name, Layer: layer, Start: t.ns(time.Now()), End: -1})
	t.cur = len(t.spans)
	return t.cur
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.ns(time.Now())
	if t.cur == id {
		t.cur = s.Parent
	}
}

// beginOp opens operation i's root span.
func (t *tracer) beginOp(i int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.req, t.cur = i, 0
	t.mu.Unlock()
	return t.open("op", "bench")
}

// record adds a finished span from any goroutine; parent may be
// inferParent.
func (t *tracer) record(name, layer string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name, Layer: layer, Start: t.ns(start), End: t.ns(end)})
	return len(t.spans)
}

func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) counted(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// ops is the number of operation root spans.
func (t *tracer) ops() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Parent == 0 && s.Layer == "bench" {
			n++
		}
	}
	return n
}

// resolve links every inferred span to the smallest explicitly parented
// span of the same operation whose interval contains it, or to the
// operation's root.
func (t *tracer) resolve() {
	if t.resolved {
		return
	}
	t.resolved = true
	byReq := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent != inferParent {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != inferParent {
			continue
		}
		best, bestLen := 0, int64(-1)
		for _, j := range byReq[s.Req] {
			c := t.spans[j]
			if c.Start <= s.Start && s.End <= c.End && (bestLen < 0 || c.End-c.Start < bestLen) {
				best, bestLen = c.ID, c.End-c.Start
			}
		}
		s.Parent = best
	}
}

// selfFrac is layer's total self time over the operations' total wall
// time.
func (t *tracer) selfFrac(layer string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolve()
	children := map[int][][2]int64{}
	var wall int64
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		} else if s.Layer == "bench" {
			wall += s.End - s.Start
		}
	}
	var self int64
	for _, s := range t.spans {
		if s.Layer != layer || s.End < 0 {
			continue
		}
		self += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	if wall == 0 {
		return 0
	}
	return float64(self) / float64(wall)
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// durationsMS returns the durations of every span called name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps the spans as JSON lines, followed by one counts line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolve()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"counts": t.counts}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tap is a switchable tracer reference for wrappers that outlive one
// phase: the service stack's wrappers are installed when the server is
// built and record only while a tracer is set.
type tap struct{ p atomic.Pointer[tracer] }

func (t *tap) get() *tracer {
	if t == nil {
		return nil
	}
	return t.p.Load()
}

func (t *tap) set(tr *tracer) { t.p.Store(tr) }

// traceFS wraps a chaos.FS, recording every operation as a span of layer
// (parent inferred) and counting fsyncs, renames and bytes written.
type traceFS struct {
	chaos.FS
	tap   *tap
	layer string
	// after, when set, runs after every operation with its name and end
	// time; the sweep workload uses it to see checkpoint boundaries.
	after func(op string, end time.Time)
}

func (f *traceFS) span(op string, t0 time.Time) {
	end := time.Now()
	f.tap.get().record("fs."+op, f.layer, inferParent, t0, end)
	if f.after != nil {
		f.after(op, end)
	}
}

func (f *traceFS) Create(name string) (chaos.File, error) {
	t0 := time.Now()
	h, err := f.FS.Create(name)
	f.span("create", t0)
	return f.wrap(h), err
}

func (f *traceFS) OpenAppend(name string) (chaos.File, error) {
	t0 := time.Now()
	h, err := f.FS.OpenAppend(name)
	f.span("open_append", t0)
	return f.wrap(h), err
}

func (f *traceFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	t0 := time.Now()
	h, err := f.FS.CreateTemp(dir, pattern)
	f.span("create_temp", t0)
	return f.wrap(h), err
}

func (f *traceFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.FS.Rename(oldpath, newpath)
	f.tap.get().count("fs.renames", 1)
	f.span("rename", t0)
	return err
}

func (f *traceFS) Remove(name string) error {
	t0 := time.Now()
	err := f.FS.Remove(name)
	f.span("remove", t0)
	return err
}

func (f *traceFS) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := f.FS.ReadFile(name)
	f.span("read", t0)
	return b, err
}

func (f *traceFS) Glob(pattern string) ([]string, error) {
	t0 := time.Now()
	m, err := f.FS.Glob(pattern)
	f.span("glob", t0)
	return m, err
}

func (f *traceFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.tap.get().count("fs.syncs", 1)
	f.span("sync_dir", t0)
	return err
}

func (f *traceFS) wrap(h chaos.File) chaos.File {
	if h == nil {
		return nil
	}
	return &traceFile{File: h, fs: f}
}

type traceFile struct {
	chaos.File
	fs *traceFS
}

func (h *traceFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := h.File.Write(p)
	h.fs.tap.get().count("fs.bytes_written", int64(n))
	h.fs.span("write", t0)
	return n, err
}

func (h *traceFile) Sync() error {
	t0 := time.Now()
	err := h.File.Sync()
	h.fs.tap.get().count("fs.syncs", 1)
	h.fs.span("sync", t0)
	return err
}

func (h *traceFile) Close() error {
	t0 := time.Now()
	err := h.File.Close()
	h.fs.span("close", t0)
	return err
}

// traceTransport is the client's http.RoundTripper: one client-layer span
// per request, whose ID travels to the server in spanHeader.
type traceTransport struct {
	base http.RoundTripper
	tap  *tap
}

func (rt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := rt.tap.get()
	if tr == nil {
		return rt.base.RoundTrip(req)
	}
	tr.count("client.requests", 1)
	id := tr.open("client.http "+req.Method, "client")
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := rt.base.RoundTrip(req)
	tr.close(id)
	return resp, err
}

// traceHandler wraps the server's handler: one server-layer span per
// request, named after the route, parented by the client's request span.
type traceHandler struct {
	next http.Handler
	tap  *tap
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if err != nil {
		parent = inferParent
	}
	h.tap.get().record(routeName(r), "server", parent, t0, time.Now())
}

// routeName names a request after the server route it hits.
func routeName(r *http.Request) string {
	p := strings.Trim(r.URL.Path, "/")
	switch {
	case r.Method == http.MethodPost && p == "jobs":
		return "server.submit"
	case p == "jobs" && r.URL.Query().Has("digest"):
		return "server.digest_lookup"
	case strings.HasPrefix(p, "jobs/") && strings.HasSuffix(p, "/result"):
		return "server.result"
	case strings.HasPrefix(p, "jobs/") && strings.Count(p, "/") == 1:
		return "server.status"
	}
	return fmt.Sprintf("server.%s %s", r.Method, p)
}
