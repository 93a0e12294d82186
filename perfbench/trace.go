package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sample is the cost of one timed call into the simulator.
type sample struct {
	wall, cpu time.Duration
	// Traced calls only: garbage-collector cycles, pause time and heap
	// allocations during the call.
	gcs, mallocs uint64
	pause        time.Duration
}

// timed runs f and measures it. CPU time is process-wide user+sys, so it
// includes other goroutines (shard workers, the run pool, the collector).
// With withMem the heap statistics are read around the call as well; the
// read stops the world, so untraced calls skip it.
func timed(withMem bool, f func() error) (sample, error) {
	var m0, m1 runtime.MemStats
	if withMem {
		runtime.ReadMemStats(&m0)
	}
	c0 := cpuTime()
	t0 := time.Now()
	err := f()
	s := sample{wall: time.Since(t0), cpu: cpuTime() - c0}
	if withMem {
		runtime.ReadMemStats(&m1)
		s.gcs = uint64(m1.NumGC - m0.NumGC)
		s.mallocs = m1.Mallocs - m0.Mallocs
		s.pause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	}
	return s, err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one traced interval. Parent 0 is the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"` // since process start
	EndUs   int64  `json:"end_us"`
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced calls stay untraced. It is
// safe for concurrent use: the campaign's executors run on pool workers.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(processStart).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartUs: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(processStart).Microseconds()
	t.mu.Lock()
	t.spans[id-1].EndUs = now
	t.mu.Unlock()
}

// write saves the spans and the manifest to dir/spans-<workload>-<seed>.json.
func (t *tracer) write(dir, workload string, seed uint64, man manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"manifest": man, "spans": t.spans})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// manifest is the reproducibility record stamped on every run's output
// and span file.
type manifest struct {
	GitRev     string  `json:"git_rev"`
	GitDirty   bool    `json:"git_dirty"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke"`
	SetupReps  int     `json:"setup_reps"`
	Config     any     `json:"config"`
}

func newManifest(o options, wl workload) manifest {
	m := manifest{
		GitRev:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   wl.name,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Smoke:      o.smoke,
		SetupReps:  setupReps,
		Config:     wl.config,
	}
	m.GitRev, m.GitDirty = buildRevision()
	return m
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
