// Command perfbench is the repository's benchmark: three closed-loop
// workloads over the sweep engine and the sweep job service, driven from
// one process through the public APIs of exp, sweep, sim, lanes, server,
// resultcache and client.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload sweep-accuracy|server-fresh|server-reuse \
//	    --seed N --seconds S --trace 0|1 [--out DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics,
// derived from spans and counts that the benchmark's own wrappers record
// around each call into a layer. Any wrong output makes correct false and
// the exit code 1. DESIGN.md gives the rationale and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"revft/internal/telemetry"
)

// setups is how many times each run builds its workload's state from
// scratch; setup_s is the median, and the last build is the one measured.
const setups = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Out      string // data directories and span traces go here
	Size     sizes
	Log      io.Writer
}

// workload is one benchmark workload. setup builds its state from scratch
// (timed as setup_s). op performs one closed-loop operation, checks its
// output, and returns its user-visible duration and an error when it
// failed or was wrong; tr, when non-nil, records spans. probe fills the
// per-layer metrics of the layers the workload exercises, after a traced
// phase. cycle is the length of the operation mix: a phase always ends on
// a whole cycle, so every phase runs the mix in its exact proportions.
// retrace installs (on) or removes the tracing wrappers that live as long
// as the workload's state, so an untraced phase runs without them.
type workload interface {
	cycle() int
	retrace(on bool) error
	setup(ctx context.Context, dir string) error
	op(ctx context.Context, i int, tr *tracer) (time.Duration, error)
	probe(ctx context.Context, tr *tracer, m map[string]metric) error
	close() error
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.Workload {
	case "sweep-accuracy":
		return newSweepAccuracy(cfg), nil
	case "server-fresh":
		return newServerFresh(cfg), nil
	case "server-reuse":
		return newServerReuse(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep-accuracy, server-fresh or server-reuse)", cfg.Workload)
}

func main() {
	cfg := config{Size: defaultSizes, Log: os.Stderr}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.Workload, "workload", "", "sweep-accuracy, server-fresh or server-reuse")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.Seconds, "seconds", 15, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.StringVar(&cfg.Out, "out", ".bench_out", "directory for data directories and span traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.Trace = *trace == 1
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one invocation: the reference loop, setups, the measured
// phase (untraced, or untraced then traced), the layer ladder when
// tracing, and the reference loop again. It prints the manifest line to
// standard output before returning the report. Dirty file data is flushed
// (sync) before every timed interval and at exit, so one interval's
// write-back, or a deleted data directory's, does not land in the fsyncs
// of the next.
func run(ctx context.Context, cfg config) (*report, error) {
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("--seconds %v: need a positive length", cfg.Seconds)
	}
	if _, err := newWorkload(cfg); err != nil {
		return nil, err
	}
	manifest := telemetry.Collect("perfbench")
	manifest.Experiment = cfg.Workload
	manifest.Seed = cfg.Seed
	refStart := referenceLoop()

	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.Out, cfg.Workload+"-")
	if err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	defer func() {
		_ = os.RemoveAll(dir) // best effort: the directory is scratch
		syscall.Sync()
	}()

	// Set up several times from scratch; keep the last state for the
	// measured phase.
	var w workload
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close setup %d: %w", k, err)
			}
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup%d", k-1))); err != nil {
				return nil, err
			}
		}
		w, _ = newWorkload(cfg)
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", k))
		syscall.Sync()
		t0 := time.Now()
		if err := w.setup(ctx, sdir); err != nil {
			_ = w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer w.close()

	rep := &report{Metrics: map[string]metric{}}
	syscall.Sync()
	if !cfg.Trace {
		ph := measure(ctx, w, cfg.Seconds, nil, 0)
		rep.Attempted, rep.Failed = ph.attempted, ph.failed
		rep.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		rep.Metrics["latency_p50_ms"] = metric{windowed(ph.latMS, 0.5), "ms"}
		rep.Metrics["latency_p90_ms"] = metric{windowed(ph.latMS, 0.9), "ms"}
		fmt.Fprintf(cfg.Log, "perfbench: %s: %d ops in %.2fs, setups %v s\n", cfg.Workload, ph.attempted, ph.wall, setupTimes)
	} else {
		bare := measure(ctx, w, cfg.Seconds/2, nil, 0)
		if err := w.retrace(true); err != nil {
			return nil, fmt.Errorf("install tracing: %w", err)
		}
		tr := newTracer()
		traced := measure(ctx, w, cfg.Seconds/2, tr, bare.attempted)
		rep.Attempted = bare.attempted + traced.attempted
		rep.Failed = bare.failed + traced.failed
		rep.Metrics["process.cpu_ms_per_op"] = metric{bare.cpuMS / float64(max(bare.attempted, 1)), "ms"}
		rep.Metrics["trace.overhead_frac"] = metric{windowed(traced.latMS, 0.5)/windowed(bare.latMS, 0.5) - 1, "frac"}
		for _, l := range layers {
			rep.Metrics["self_frac."+l] = metric{tr.selfFrac(l), "frac"}
		}
		if err := w.probe(ctx, tr, rep.Metrics); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		if err := ladder(ctx, cfg, filepath.Join(dir, "ladder"), rep.Metrics); err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
		if err := tr.write(filepath.Join(cfg.Out, "trace-"+cfg.Workload+".jsonl")); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	refEnd := referenceLoop()
	if cfg.Trace {
		rep.Metrics["host.ref_loop_ms.start"] = metric{refStart, "ms"}
		rep.Metrics["host.ref_loop_ms.end"] = metric{refEnd, "ms"}
	} else {
		rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	rep.Correct = rep.Failed == 0

	stamp, err := json.Marshal(map[string]any{
		"manifest": manifest, "nproc": runtime.NumCPU(), "workload": cfg.Workload,
		"ref_loop_ms": map[string]float64{"start": refStart, "end": refEnd},
		"setup_s":     setupTimes,
	})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(stamp))
	return rep, nil
}

// phase is one measured closed loop.
type phase struct {
	attempted, failed int
	latMS             []float64
	cpuMS, wall       float64
}

// measure runs w's operations back to back for seconds, rounded up to a
// whole cycle, each one starting when the previous one returns. first
// numbers the operations, so a second phase continues the first one's
// input sequence.
func measure(ctx context.Context, w workload, seconds float64, tr *tracer, first int) phase {
	var ph phase
	cpu0 := cpuMS()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := first; time.Now().Before(deadline) || (i-first)%w.cycle() != 0; i++ {
		lat, err := w.op(ctx, i, tr)
		ph.latMS = append(ph.latMS, float64(lat.Nanoseconds())/1e6)
		ph.attempted++
		if err != nil {
			ph.failed++
			if ph.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			}
		}
	}
	ph.wall = time.Since(start).Seconds()
	ph.cpuMS = cpuMS() - cpu0
	return ph
}

// referenceLoop times a fixed pure-Go integer loop, in ms. It is recorded
// at the start and end of every run so that host drift can be told apart
// from a regression; no metric is normalised by it.
func referenceLoop() float64 {
	t0 := time.Now()
	x, sum := uint64(0x9e3779b97f4a7c15), uint64(0)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += x >> 60
	}
	refSink = sum
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var refSink uint64

// cpuMS is the process's user plus system CPU time so far, in ms.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// peakRSSMB is the process's peak resident set size, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// windows is how many consecutive slices of the measured phase windowed
// takes a quantile of.
const windows = 5

// windowed is the median, over windows consecutive slices of the
// operations, of each slice's q-quantile of v. A host slowdown shorter
// than two fifths of the phase moves at most two slices and not their
// median, where it would move a quantile of all the operations pooled.
func windowed(v []float64, q float64) float64 {
	if len(v) < windows {
		return quantile(v, q)
	}
	per := make([]float64, windows)
	for k := range per {
		per[k] = quantile(v[k*len(v)/windows:(k+1)*len(v)/windows], q)
	}
	return median(per)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation between order
// statistics; v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
