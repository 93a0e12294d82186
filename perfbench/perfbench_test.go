package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossipkit/internal/core"
	"gossipkit/internal/scenario"
	"gossipkit/internal/stream"
)

// benchmarkFile mirrors the fields of BENCHMARK.json the program must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program runs %q", got, want)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload at its reduced size, untraced and traced,
// and checks that every execution passes its checks and every named
// metric is emitted.
func TestSmoke(t *testing.T) {
	for _, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := run(options{workload: w.name, seed: 3, seconds: 0.2, trace: traced, smoke: true, out: dir}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case !traced && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if traced {
					checkSpans(t, filepath.Join(dir, "spans-"+w.name+"-3.json"))
				}
			})
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Manifest manifest `json:"manifest"`
		Spans    []span   `json:"spans"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Manifest.NProc < 1 || f.Manifest.GoVersion == "" {
		t.Errorf("span file manifest incomplete: %+v", f.Manifest)
	}
	seen := map[string]bool{}
	for _, s := range f.Spans {
		if s.EndUs < s.StartUs || s.Parent >= s.ID {
			t.Errorf("malformed span %+v", s)
		}
		seen[strings.SplitN(s.Name, ".", 2)[0]] = true
	}
	for _, want := range []string{"setup", "exec", "verify", "probe"} {
		if !seen[want] {
			t.Errorf("no %s span", want)
		}
	}
}

// TestCellAttributionAnyWorkers runs the traced smoke grid with pool
// sizes other than this host's, so the cell attribution is checked for
// worker counts the smoke test does not reach; and shows that set-up
// rejects seeds per cell the workers do not divide.
func TestCellAttributionAnyWorkers(t *testing.T) {
	w, _ := lookupWorkload("campaign-grid", true)
	for _, workers := range []int{1, 3, 4} {
		cc := w.config.(campaignConfig)
		cc.Workers, cc.SeedsPerCell = workers, seedsPerCell(2, workers)
		tr := newTracer()
		inst, err := cc.setup(3, tr, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ex, err := inst.exec(0, tr, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		g := inst.(*campaign)
		cells, err := g.cells(ex.trace.(campaignTrace))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := len(cc.Rows) * len(g.scenarios); len(cells) != want {
			t.Errorf("workers=%d: attributed %d cells, want %d", workers, len(cells), want)
		}
	}
	cc := w.config.(campaignConfig)
	cc.Workers, cc.SeedsPerCell = 3, 2
	if _, err := cc.setup(3, nil, 0); err == nil {
		t.Error("set-up accepted 3 workers for 2 seeds per cell")
	}
}

// TestChecksReject shows each output check rejects a broken result.
func TestChecksReject(t *testing.T) {
	m := &multicast{cfg: multicastConfig{Tolerance: eq11Tolerance(1_000_000)}, pred: 0.988}
	ok := core.NetResult{Result: core.Result{AliveCount: 1000, Delivered: 988, Reliability: 0.988}}
	if err := m.check(ok); err != nil {
		t.Fatalf("good multicast result rejected: %v", err)
	}
	died := core.NetResult{Result: core.Result{AliveCount: 1000, Delivered: 3, Reliability: 0.003}}
	if err := m.check(died); err != nil {
		t.Fatalf("early die-out rejected: %v", err)
	}
	open := ok
	open.Net.Sent = 1
	for name, bad := range map[string]core.NetResult{
		"open ledger": open,
		"off Eq. 11":  {Result: core.Result{AliveCount: 1000, Delivered: 987, Reliability: 0.987}},
		"half spread": {Result: core.Result{AliveCount: 1000, Delivered: 400, Reliability: 0.400}},
	} {
		if m.check(bad) == nil {
			t.Errorf("multicast check accepted %s", name)
		}
	}

	s := &streamRun{cfg: streamConfig{ReliabilityFloor: 0.95}}
	good := stream.Result{Published: 10, MeanReliability: 0.99,
		Ledger: stream.Ledger{Inserted: 5, Evicted: 2, Expired: 3}}
	if err := s.check(good); err != nil {
		t.Fatalf("good stream result rejected: %v", err)
	}
	leak, low, sends := good, good, good
	leak.Ledger.Evicted = 1
	low.MeanReliability = 0.5
	sends.Ledger.Sends = 7
	for name, bad := range map[string]stream.Result{"copy ledger": leak, "reliability": low, "send ledger": sends} {
		if s.check(bad) == nil {
			t.Errorf("stream check accepted a broken %s", name)
		}
	}

	g := &campaign{cfg: campaignConfig{Rows: []string{"paper"}, SeedsPerCell: 2}, scenarios: scenario.DefaultSuite()[:1]}
	cell := scenario.CompareCell{Protocol: "paper"}
	cell.Runs = 2
	if err := g.check(&scenario.CompareResult{Cells: []scenario.CompareCell{cell}}); err != nil {
		t.Fatalf("good grid rejected: %v", err)
	}
	cell.Runs = 1
	if g.check(&scenario.CompareResult{Cells: []scenario.CompareCell{cell}}) == nil {
		t.Error("campaign check accepted a cell missing a seed")
	}
}
