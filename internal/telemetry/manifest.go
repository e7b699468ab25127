package telemetry

import (
	"runtime"
	"runtime/debug"
	"time"
)

// Manifest identifies the exact configuration a run's numbers came from.
// It is written as the header line of every trace file and embedded in
// every sweep checkpoint, so any artifact can be traced back to the tool,
// code revision, engine, seed, and machine shape that produced it.
type Manifest struct {
	Tool       string    `json:"tool"`                  // producing command, e.g. "revft-mc"
	Experiment string    `json:"experiment,omitempty"`  // experiment name
	SpecDigest string    `json:"spec_digest,omitempty"` // sweep.Spec digest, when the run is a sweep
	Engine     string    `json:"engine,omitempty"`      // execution engine, e.g. "scalar" or "lanes256"
	Seed       uint64    `json:"seed"`
	Trials     int       `json:"trials,omitempty"`
	Workers    int       `json:"workers,omitempty"`
	Git        string    `json:"git"` // vcs revision (+dirty), or "unknown"
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	StartedAt  time.Time `json:"started_at"`
	// Chaos records fault injection active during the run, so a trace or
	// checkpoint produced under chaos can never be mistaken for a clean
	// run's. Nil (omitted from JSON) when injection is off.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// Cache records the content-addressed result cache consulted during
	// the run, so an artifact can be traced to the store its points may
	// have been served from. Nil (omitted from JSON) when no cache is
	// configured.
	Cache *CacheSpec `json:"cache,omitempty"`
}

// CacheSpec is the manifest record of an active result cache.
type CacheSpec struct {
	Dir string `json:"dir"`
}

// ChaosSpec is the manifest record of an active fault-injection
// configuration: the per-operation fault probability, the RNG seed that
// makes the fault sequence reproducible, and the names of the targeted
// filesystem operations (empty means all).
type ChaosSpec struct {
	Rate float64  `json:"rate"`
	Seed uint64   `json:"seed"`
	Ops  []string `json:"ops,omitempty"`
}

// Collect builds a manifest for tool from the running binary: Go version,
// platform, GOMAXPROCS, start time, and the VCS revision stamped into the
// build info (the go tool's equivalent of git-describe; "unknown" for
// unstamped builds such as go test binaries).
func Collect(tool string) *Manifest {
	m := &Manifest{
		Tool:       tool,
		Git:        "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		StartedAt:  time.Now().UTC(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "+dirty"
			}
			m.Git = rev
		}
	}
	return m
}
