// Command perfbench is the repository's benchmark: it runs one named
// simulator workload as a closed-loop batch (each execution starts after
// the previous one ends), checks every execution's output, and prints the
// end-to-end metrics — or, with --trace 1, the per-module metrics — as the
// last line of standard output:
//
//	perfbench --workload multicast-1m --seed 7 --seconds 10 --trace 0
//
// Workloads, metrics and the module each metric belongs to are described
// in NOTES.md. run.sh builds the binary from the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

// setupReps is how many times a run builds its workload from scratch;
// setup_s is the median, so one slow set-up does not move it.
const setupReps = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // reduced sizes; set by the benchmark's own tests only
	out      string // directory the traced run writes its span file to
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every execution's RNG derives from it and the execution index")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed loop runs")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-module metrics and a span file")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds %g: want > 0", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execution is one timed call into the simulator and what its checks
// need to know about the outcome.
type execution struct {
	sample
	entries int64    // simulated messages in id-entry units
	digest  [32]byte // hash of the full result, for the repeated-seed check
	trace   any      // traced executions: the workload's module counters
	full    bool     // ran at the workload's full size (the spread took off)
}

// ledger counts operations (executions) and their failures. A returned
// error and a failed output check both count the operation as failed.
type ledger struct {
	attempted, failed int
	digests           map[int][32]byte // execution index -> first result digest
}

func (l *ledger) record(i int, ex execution, err error) bool {
	l.attempted++
	if err == nil {
		if prev, ok := l.digests[i]; ok && prev != ex.digest {
			err = fmt.Errorf("execution %d did not reproduce its earlier result byte for byte", i)
		} else if !ok {
			l.digests[i] = ex.digest
		}
	}
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: execution %d failed: %v\n", i, err)
		return false
	}
	return true
}

// run executes one benchmark run: set-up (repeated setupReps times), the
// timed loop, and — when traced — the layer probes. The manifest goes to
// w as its own line ahead of the result.
func run(o options, w io.Writer) (result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	wl, ok := lookupWorkload(o.workload, o.smoke)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	man := newManifest(o, wl)
	if err := json.NewEncoder(w).Encode(map[string]any{"manifest": man}); err != nil {
		return result{}, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	led := &ledger{digests: map[int][32]byte{}}

	var inst instance
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		start := processStart
		if rep > 0 {
			// Drop the previous set-up's arenas so every set-up grows
			// its own from the same state.
			inst = nil
			runtime.GC()
			debug.FreeOSMemory()
			start = time.Now()
		}
		sp := tr.begin("setup", 0)
		var err error
		inst, err = wl.setup(o.seed, tr, sp)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		// The untimed warm-up: the arenas grow here, not in exec_s. A
		// multicast that died out early grows nothing, so the warm-up
		// moves on to the next index until one runs at full size.
		for j := 0; ; j++ {
			ex, err := inst.exec(j, tr, sp)
			if !led.record(j, ex, err) || ex.full {
				break
			}
		}
		tr.end(sp)
		setups = append(setups, time.Since(start).Seconds())
	}

	// Memory is measured over the timed loop. Set-up's growth garbage,
	// which the collector may or may not have returned when the peak is
	// read, made the whole-process peak swing by a third between runs.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return result{}, err
	}

	// The timed loop: closed-loop, one execution after another, until
	// the deadline and at least minExecs executions. A traced run pairs
	// each index: untraced for the overhead baseline, then traced for the
	// module counters; the two must agree byte for byte.
	minExecs := 3
	if o.trace {
		minExecs = 2
	}
	var plain, traced []execution
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < minExecs || time.Now().Before(deadline); i++ {
		ex, err := collectedExec(inst, i, nil, 0)
		if led.record(i, ex, err) {
			plain = append(plain, ex)
		}
		if o.trace {
			sp := tr.begin("exec", 0)
			ex, err = collectedExec(inst, i, tr, sp)
			tr.end(sp)
			if led.record(i, ex, err) {
				traced = append(traced, ex)
			}
		}
	}

	res := result{Attempted: led.attempted, Failed: led.failed, Metrics: map[string]metric{}}
	if len(plain) == 0 || (o.trace && len(traced) == 0) {
		return res, nil // every execution failed: nothing to measure
	}
	if !o.trace {
		var walls, rates, cpus []float64
		for _, ex := range plain {
			walls = append(walls, ex.wall.Seconds())
			rates = append(rates, ratio(float64(ex.entries), ex.wall.Seconds()))
			cpus = append(cpus, ex.cpu.Seconds())
		}
		set := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
		set("setup_s", median(setups))
		set("exec_s", median(walls))
		set("msgs_per_s", median(rates))
		set("cpu_s", median(cpus))
		mem, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		set("mem_mb", mem)
	} else {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{0, m.unit}
		}
		// Module counters describe full-size executions; a multicast
		// that died out early would skew a median of two or three.
		var full []execution
		for _, ex := range traced {
			if ex.full {
				full = append(full, ex)
			}
		}
		if len(full) == 0 {
			full = traced
		}
		layers, err := inst.layers(full, tr)
		if err != nil {
			return result{}, err
		}
		layers["trace.overhead"] = ratio(median(wallsOf(traced)), median(wallsOf(plain)))
		var gcs, pauses, mallocs []float64
		for _, ex := range traced {
			gcs = append(gcs, float64(ex.gcs))
			pauses = append(pauses, ex.pause.Seconds())
			mallocs = append(mallocs, float64(ex.mallocs))
		}
		layers["gc.cycles"] = median(gcs)
		layers["gc.pause_s"] = median(pauses)
		layers["alloc.warm_mallocs"] = median(mallocs)
		for name, v := range layers {
			unit := unitOf(perLayer, name)
			if unit == "" {
				return result{}, fmt.Errorf("workload reported undeclared metric %q", name)
			}
			res.Metrics[name] = metric{v, unit}
		}
		if err := tr.write(o.out, o.workload, o.seed, man); err != nil {
			return result{}, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// collectedExec runs execution i from a collected heap, so collector work
// left over from earlier executions does not land in its time.
func collectedExec(inst instance, i int, tr *tracer, parent int) (execution, error) {
	runtime.GC()
	return inst.exec(i, tr, parent)
}

func wallsOf(exs []execution) []float64 {
	var out []float64
	for _, ex := range exs {
		out = append(out, ex.wall.Seconds())
	}
	return out
}

// resetPeakRSS restarts the kernel's peak-RSS record for this process.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size since resetPeakRSS,
// in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM in /proc/self/status")
}
