package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"time"

	"gossipkit"
	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/protocols"
	"gossipkit/internal/runpool"
	"gossipkit/internal/scenario"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// campaign-grid: the (protocol × scenario) comparison grid.

type campaignConfig struct {
	Entry        string   `json:"entry"`
	N            int      `json:"n"`
	Fanout       float64  `json:"fanout_poisson_mean"` // the baseline rows use it rounded
	Q            float64  `json:"q"`
	Rounds       int      `json:"rounds"`
	Views        int      `json:"views"`
	Scenarios    []string `json:"scenarios"`
	Rows         []string `json:"rows"`
	SeedsPerCell int      `json:"seeds_per_cell"`
	Workers      int      `json:"workers"`
	// LatencyMs is the scenario runner's default link latency band, which
	// the grid leaves in place; the layer probes use it.
	LatencyMs [2]int `json:"latency_ms"`
}

type campaign struct {
	cfg       campaignConfig
	seed      uint64
	spec      gossipkit.Compare
	scenarios []*scenario.Scenario
	executors []scenario.Executor
}

// cellCall is one traced executor call inside a grid.
type cellCall struct {
	arena  *core.NetArena
	row    int
	wall   time.Duration
	events uint64
	end    sim.Time
	net    simnet.Stats
	msgs   int // NetResult.MessagesSent, what the facade reports
}

type campaignTrace struct {
	calls []cellCall // in completion order
}

// viewRows are the rows that build SCAMP partial views
// (membership.NewPartialViews) for every execution.
var viewRows = map[string]bool{"paper": true, "lpbcast": true, "rdg": true}

func (c campaignConfig) setup(seed uint64, tr *tracer, parent int) (instance, error) {
	sp := tr.begin("setup.inputs", parent)
	defer tr.end(sp)
	g := &campaign{cfg: c, seed: seed, scenarios: scenario.DefaultSuite()}
	if w := g.poolWorkers(); c.SeedsPerCell%w != 0 {
		return nil, fmt.Errorf("traced cell attribution needs the %d pool workers to divide the %d seeds per cell", w, c.SeedsPerCell)
	}
	g.spec = gossipkit.Compare{
		Scenarios: g.scenarios,
		Config: gossipkit.ScenarioRunConfig{
			Params:            gossipkit.Params{N: c.N, Fanout: dist.NewPoisson(c.Fanout), AliveRatio: c.Q},
			PartialViewCopies: c.Views,
		},
	}
	fanout := int(math.Round(c.Fanout))
	for _, row := range c.Rows {
		var p protocols.Spec
		switch row {
		case "paper":
			g.spec.Paper = true
			g.executors = append(g.executors, scenario.PaperExecutor("paper"))
			continue
		case "pbcast":
			p = protocols.PbcastParams{N: c.N, Fanout: fanout, Rounds: c.Rounds, AliveRatio: c.Q}
		case "lpbcast":
			p = protocols.LpbcastParams{N: c.N, Fanout: fanout, Rounds: c.Rounds,
				BufferSize: 8, Events: 3, AliveRatio: c.Q, ViewCopies: c.Views}
		case "anti-entropy":
			p = protocols.AntiEntropyParams{N: c.N, Rounds: c.Rounds, Mode: protocols.PushPull, AliveRatio: c.Q}
		case "rdg":
			p = protocols.RDGParams{N: c.N, Fanout: fanout, PushRounds: c.Rounds,
				RecoveryRounds: (c.Rounds + 1) / 2, AliveRatio: c.Q, ViewCopies: c.Views, PayloadProb: 0.8}
		case "lrg":
			p = protocols.LRGParams{N: c.N, Degree: fanout + 2, GossipProb: 0.8,
				RepairRounds: (c.Rounds + 1) / 2, AliveRatio: c.Q}
		default:
			return nil, fmt.Errorf("unknown protocol row %q", row)
		}
		g.spec.Protocols = append(g.spec.Protocols, p)
		g.executors = append(g.executors, scenario.NewProtocolExecutor(p))
	}
	return g, nil
}

// gridSeed is grid i's base seed.
func (g *campaign) gridSeed(i int) uint64 { return execRNG(g.seed, i).Uint64() }

// exec runs one full grid. Untraced it goes through the facade exactly as
// a user would (RunMany over Compare); traced it calls the scenario layer
// underneath with each row's executor wrapped in a timer, and the check
// requires the same CSV either way.
func (g *campaign) exec(i int, tr *tracer, parent int) (execution, error) {
	ctx := context.Background()
	var res *scenario.CompareResult
	var entries int64
	var t campaignTrace
	var s sample
	var err error
	if tr == nil {
		var out *gossipkit.Outcome
		s, err = timed(false, func() (e error) {
			out, e = gossipkit.RunMany(ctx, g.spec, g.cfg.SeedsPerCell,
				gossipkit.WithSeed(g.gridSeed(i)), gossipkit.WithWorkers(g.cfg.Workers))
			return e
		})
		if err != nil {
			return execution{}, err
		}
		// The facade reports protocol messages, which equal the fabric's
		// id entries on every row but anti-entropy (see NOTES.md).
		for _, r := range out.Reports {
			entries += int64(r.MessagesSent)
		}
		var ok bool
		if res, ok = out.Aggregate.(*gossipkit.ScenarioCompareResult); !ok {
			return execution{}, fmt.Errorf("compare aggregate is %T", out.Aggregate)
		}
	} else {
		rec := &cellRecorder{tr: tr}
		var execs []scenario.Executor
		for row, ex := range g.executors {
			execs = append(execs, timedExecutor{Executor: ex, row: row, rec: rec})
		}
		rec.parent = tr.begin("scenario.CompareCtx", parent)
		s, err = timed(true, func() (e error) {
			res, e = scenario.CompareCtx(ctx, g.scenarios, scenario.CompareConfig{
				Run: g.spec.Config, Executors: execs, Seeds: g.cfg.SeedsPerCell,
				BaseSeed: g.gridSeed(i), Workers: g.cfg.Workers,
			}, nil)
			return e
		})
		tr.end(rec.parent)
		if err != nil {
			return execution{}, err
		}
		t.calls = rec.calls
		for _, c := range t.calls {
			entries += int64(c.msgs)
		}
	}
	sp := tr.begin("verify", parent)
	defer tr.end(sp)
	ex := execution{sample: s, entries: entries, digest: sha256.Sum256([]byte(res.CSV())), trace: t, full: true}
	return ex, g.check(res)
}

func (g *campaign) check(res *scenario.CompareResult) error {
	if want := len(g.cfg.Rows) * len(g.scenarios); len(res.Cells) != want {
		return fmt.Errorf("grid has %d cells, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Runs != g.cfg.SeedsPerCell {
			return fmt.Errorf("cell %s/%s ran %d of %d seeds", c.Protocol, c.Scenario, c.Runs, g.cfg.SeedsPerCell)
		}
		if !(c.Reliability.Mean >= 0 && c.Reliability.Mean <= 1) {
			return fmt.Errorf("cell %s/%s reliability %v outside [0, 1]", c.Protocol, c.Scenario, c.Reliability.Mean)
		}
	}
	return nil
}

// cellRecorder collects the traced grid's executor calls from the pool
// workers.
type cellRecorder struct {
	tr     *tracer
	parent int
	mu     sync.Mutex
	calls  []cellCall
}

// timedExecutor times one protocol row's executions.
type timedExecutor struct {
	scenario.Executor
	row int
	rec *cellRecorder
}

func (e timedExecutor) Execute(cfg scenario.RunConfig, r *xrand.RNG, inject func(*core.NetRun), arena *core.NetArena) (core.NetResult, error) {
	var k *sim.Kernel
	wrapped := func(nr *core.NetRun) {
		k = nr.Kernel
		if inject != nil {
			inject(nr)
		}
	}
	sp := e.rec.tr.begin("scenario.Executor.Execute/"+e.Protocol(), e.rec.parent)
	t0 := time.Now()
	res, err := e.Executor.Execute(cfg, r, wrapped, arena)
	c := cellCall{arena: arena, row: e.row, wall: time.Since(t0), net: res.Net, msgs: res.MessagesSent}
	e.rec.tr.end(sp)
	if k != nil {
		c.events, c.end = k.Fired(), k.Now()
	}
	e.rec.mu.Lock()
	e.rec.calls = append(e.rec.calls, c)
	e.rec.mu.Unlock()
	return res, err
}

// poolWorkers is the number of workers the grid's pool starts: never more
// than the grid has executions.
func (g *campaign) poolWorkers() int {
	return runpool.Count(g.cfg.Workers, len(g.cfg.Rows)*len(g.scenarios)*g.cfg.SeedsPerCell)
}

// cells attributes a traced grid's executor calls to grid cells and
// returns each cell's summed execution time by (row, scenario). The pool
// runs item j on worker j mod W, in increasing j, and each worker keeps
// one arena; so when W divides the seeds per cell (setup checks it), a
// worker's k-th call belongs to cell k / (seeds/W) whichever worker it is.
func (g *campaign) cells(t campaignTrace) (map[[2]int]float64, error) {
	per := g.cfg.SeedsPerCell / g.poolWorkers()
	seen := map[*core.NetArena]int{}
	out := map[[2]int]float64{}
	for _, c := range t.calls {
		k := seen[c.arena]
		seen[c.arena]++
		cell := k / per
		row, sc := cell/len(g.scenarios), cell%len(g.scenarios)
		if row != c.row {
			return nil, fmt.Errorf("cell attribution broke: call %d of a worker is row %d, expected row %d", k, c.row, row)
		}
		out[[2]int{row, sc}] += c.wall.Seconds()
	}
	return out, nil
}

func (g *campaign) layers(traced []execution, tr *tracer) (map[string]float64, error) {
	var events, depth, sent, deliv, dropped, views, util, cellTimes []float64
	rowTimes := make([][]float64, len(g.cfg.Rows))
	lo, hi := ms(g.cfg.LatencyMs[0]), ms(g.cfg.LatencyMs[1])
	for _, ex := range traced {
		t := ex.trace.(campaignTrace)
		var ev, se, de, dr, vb float64
		for _, c := range t.calls {
			ev += float64(c.events)
			se += float64(c.net.Sent)
			de += float64(c.net.Delivered)
			dr += float64(c.net.DroppedLoss + c.net.DroppedCrash + c.net.DroppedPart + c.net.DroppedDown)
			depth = append(depth, littleDepth(c.events, (lo+hi)/2, c.end))
			if viewRows[g.cfg.Rows[c.row]] {
				vb++
			}
		}
		events = append(events, ev)
		sent = append(sent, se)
		deliv = append(deliv, de)
		dropped = append(dropped, dr)
		views = append(views, vb)
		util = append(util, ratio(ex.cpu.Seconds(), ex.wall.Seconds()*float64(g.poolWorkers())))
		cells, err := g.cells(t)
		if err != nil {
			return nil, err
		}
		for key, v := range cells {
			cellTimes = append(cellTimes, v)
			rowTimes[key[0]] = append(rowTimes[key[0]], v)
		}
	}
	d := int(median(depth))
	nsEvent := probeKernel(tr, d, g.cfg.N, probeOps(int(median(events))), lo, hi, g.seed)
	netCfg := simnet.Config{Latency: simnet.UniformLatency{Lo: lo, Hi: hi}}
	nsSend := probeSendTag(tr, g.cfg.N, d, probeOps(int(median(sent))), netCfg, g.seed) - nsEvent
	build := probePartialViews(tr, g.cfg.N, g.cfg.Views, g.seed)
	out := map[string]float64{
		"sim.events":               median(events),
		"sim.depth":                float64(d),
		"sim.ns_per_event":         nsEvent,
		"simnet.sent":              median(sent),
		"simnet.delivered":         median(deliv),
		"simnet.dropped":           median(dropped),
		"simnet.entries_per_batch": 1,
		"simnet.ns_per_send":       nsSend,
		"membership.views_built":   median(views),
		"membership.build_s":       median(views) * build,
		"scenario.cell_s.p50":      quantile(cellTimes, 0.5),
		"scenario.cell_s.p95":      quantile(cellTimes, 0.95),
		"runpool.utilization":      median(util),
	}
	for row, name := range g.cfg.Rows {
		out["protocols."+name+".cell_s"] = median(rowTimes[row])
	}
	return out, nil
}
