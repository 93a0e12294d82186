package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"gossipkit/internal/scenario"
	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// workload is one named set of inputs. setup builds the inputs, the
// Eq. 11 reference where there is one, and the arenas; the caller then
// runs the untimed warm-up execution.
type workload struct {
	name   string
	config any // the full configuration, stamped on the manifest
	setup  func(seed uint64, tr *tracer, parent int) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// exec runs execution i — its RNG derives from the workload seed
	// and i — timing only the call into the simulator, then checks the
	// output. A non-nil tracer records spans and the module counters
	// layers needs.
	exec(i int, tr *tracer, parent int) (execution, error)
	// layers turns the traced executions' counters into per-module
	// metrics, running the layer probes sized from those counters.
	layers(traced []execution, tr *tracer) (map[string]float64, error)
}

func workloads(smoke bool) []workload {
	mc := multicastConfig{
		Entry: "core.ExecuteOnNetworkArena", N: 1_000_000, Fanout: 5, Q: 0.9,
		LatencyMs: [2]int{1, 10},
	}
	sc := streamConfig{
		Entry: "stream.RunProbed", N: 2000, Rate: 4000, DurationMs: 500, FanoutK: 3, BufferCap: 128,
		Eviction: "fifo", Discipline: "pushpull", Batch: true, ActiveRounds: 8, RoundIntervalMs: 10,
		LatencyMs: [2]int{1, 5}, ReliabilityFloor: 0.95,
	}
	workers := runtime.NumCPU()
	cc := campaignConfig{
		Entry: "gossipkit.RunMany(Compare)", N: 1000, Fanout: 5, Q: 1, Rounds: 10, Views: 2,
		Rows:         []string{"paper", "pbcast", "lpbcast", "anti-entropy", "rdg", "lrg"},
		SeedsPerCell: seedsPerCell(4, workers), Workers: workers, LatencyMs: [2]int{1, 20},
	}
	for _, s := range scenario.DefaultSuite() {
		cc.Scenarios = append(cc.Scenarios, s.Name)
	}
	if smoke {
		mc.N = 20_000
		sc.N, sc.DurationMs, sc.ReliabilityFloor = 200, 100, 0.9
		cc.N, cc.SeedsPerCell = 200, seedsPerCell(2, workers)
	}
	mc.Tolerance = eq11Tolerance(mc.N)
	sh := mc
	sh.Entry, sh.Shards = "core.ExecuteOnNetworkSharded", 2
	return []workload{
		{"multicast-1m", mc, mc.setup},
		{"multicast-1m-shards2", sh, sh.setup},
		{"stream-knee", sc, sc.setup},
		{"campaign-grid", cc, cc.setup},
	}
}

// eq11Tolerance bounds a took-off spread's |reliability − Eq. 11| at n
// members: 8·10⁻⁴ at n=10⁶, about 6σ of the per-execution spread measured
// there (σ ≈ 1.25·10⁻⁴, see NOTES.md), scaled by √(10⁶/n) as that spread is.
func eq11Tolerance(n int) float64 { return 8e-4 * math.Sqrt(1e6/float64(n)) }

// seedsPerCell is the grid's seeds per cell: the larger of least and the
// pool's workers, rounded up to a multiple of the workers. The traced
// grid's cell attribution needs the workers to divide the seeds per cell.
func seedsPerCell(least, workers int) int {
	return (max(least, workers) + workers - 1) / workers * workers
}

func lookupWorkload(name string, smoke bool) (workload, bool) {
	for _, w := range workloads(smoke) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads(false) {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// execRNG is execution i's RNG: a split of the workload seed, so runs
// with one seed repeat exactly and the index picks the execution.
func execRNG(seed uint64, i int) *xrand.RNG { return xrand.New(seed).Split(uint64(i)) }

func digestOf(v any) [32]byte { return sha256.Sum256([]byte(fmt.Sprintf("%+v", v))) }

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// ratio is a/b, or 0 when b is 0 (a spread that died before any delivery).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// littleDepth is the time-averaged event-queue depth of an execution by
// Little's law: events × mean scheduling delay / simulated duration.
func littleDepth(events uint64, meanDelay time.Duration, end sim.Time) float64 {
	if end <= 0 {
		return 0
	}
	return float64(events) * float64(meanDelay) / float64(end)
}
