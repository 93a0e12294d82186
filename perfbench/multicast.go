package main

import (
	"fmt"
	"math"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
)

// multicast-1m, multicast-1m-shards2: one multicast spread to quiescence.

type multicastConfig struct {
	Entry     string  `json:"entry"`
	N         int     `json:"n"`
	Fanout    float64 `json:"fanout_poisson_mean"`
	Q         float64 `json:"q"`
	LatencyMs [2]int  `json:"latency_ms"`
	Shards    int     `json:"shards,omitempty"`
	// Tolerance bounds |reliability − Eq. 11| for an execution whose
	// spread took off.
	Tolerance float64 `json:"tolerance"`
}

type multicast struct {
	cfg    multicastConfig
	seed   uint64
	p      core.Params
	net    simnet.Config
	pred   float64
	arena  *core.NetArena
	sarena *core.ShardArena
}

// multicastTrace is what a traced multicast execution records.
type multicastTrace struct {
	res      core.NetResult
	events   uint64
	end      sim.Time
	barriers int             // sharded: window barriers
	window   []time.Duration // sharded: wall time between barriers
}

func (c multicastConfig) setup(seed uint64, tr *tracer, parent int) (instance, error) {
	sp := tr.begin("setup.inputs", parent)
	m := &multicast{
		cfg: c, seed: seed,
		p:   core.Params{N: c.N, Fanout: dist.NewPoisson(c.Fanout), AliveRatio: c.Q},
		net: simnet.Config{Latency: simnet.UniformLatency{Lo: ms(c.LatencyMs[0]), Hi: ms(c.LatencyMs[1])}},
	}
	tr.end(sp)
	sp = tr.begin("core.Predict", parent)
	pred, err := core.Predict(m.p)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	m.pred = pred.Reliability
	if c.Shards > 0 {
		m.sarena = core.NewShardArena(core.EffectiveShards(c.Shards, c.N, m.net))
	} else {
		m.arena = core.NewNetArena()
	}
	return m, nil
}

func (m *multicast) exec(i int, tr *tracer, parent int) (execution, error) {
	r := execRNG(m.seed, i)
	var res core.NetResult
	var t multicastTrace
	var s sample
	var err error
	if m.sarena == nil {
		var inject func(*core.NetRun)
		var k *sim.Kernel
		if tr != nil {
			inject = func(nr *core.NetRun) { k = nr.Kernel }
		}
		sp := tr.begin("core.ExecuteOnNetworkArena", parent)
		s, err = timed(tr != nil, func() (e error) {
			res, e = core.ExecuteOnNetworkArena(m.p, m.net, r, inject, m.arena)
			return e
		})
		tr.end(sp)
		if k != nil {
			t.events, t.end = k.Fired(), k.Now()
		}
	} else {
		opts := core.ShardOptions{Shards: m.cfg.Shards}
		if tr != nil {
			t.window = make([]time.Duration, 0, 1024)
			var last time.Time
			opts.Progress = func(events uint64, now sim.Time) {
				at := time.Now()
				if !last.IsZero() {
					t.window = append(t.window, at.Sub(last))
				}
				last, t.events, t.end = at, events, now
				t.barriers++
			}
		}
		sp := tr.begin("core.ExecuteOnNetworkSharded", parent)
		s, err = timed(tr != nil, func() (e error) {
			res, e = core.ExecuteOnNetworkSharded(m.p, m.net, r, nil, m.sarena, nil, opts)
			return e
		})
		tr.end(sp)
	}
	if err != nil {
		return execution{}, err
	}
	sp := tr.begin("verify", parent)
	defer tr.end(sp)
	t.res = res
	ex := execution{sample: s, entries: res.Net.SentEntries(), digest: digestOf(res), trace: t,
		full: res.Reliability >= 0.5}
	return ex, m.check(res)
}

// check verifies one execution: the fabric ledger closes, and the spread
// either took off and reached Eq. 11's giant component within the
// tolerance, or died out early (probability about 1−R) having reached
// only a handful of members.
func (m *multicast) check(res core.NetResult) error {
	if n := res.Net.InFlight(); n != 0 {
		return fmt.Errorf("fabric ledger open: %d messages in flight at quiescence", n)
	}
	if res.Reliability >= 0.5 {
		if gap := math.Abs(res.Reliability - m.pred); gap > m.cfg.Tolerance {
			return fmt.Errorf("reliability %.5f is %.5f from Eq. 11's %.5f (tolerance %g)",
				res.Reliability, gap, m.pred, m.cfg.Tolerance)
		}
		return nil
	}
	if res.Delivered > res.AliveCount/100 {
		return fmt.Errorf("spread neither took off nor died out: %d of %d members", res.Delivered, res.AliveCount)
	}
	return nil
}

func (m *multicast) layers(traced []execution, tr *tracer) (map[string]float64, error) {
	var events, depth, sent, deliv, dropped, useful, bitOps, fwds, base []float64
	var cpuWall, barriers, perWindow, windows []float64
	meanDelay := ms(m.cfg.LatencyMs[0]+m.cfg.LatencyMs[1]) / 2
	for _, ex := range traced {
		t := ex.trace.(multicastTrace)
		net := t.res.Net
		events = append(events, float64(t.events))
		depth = append(depth, littleDepth(t.events, meanDelay, t.end))
		sent = append(sent, float64(net.Sent))
		deliv = append(deliv, float64(net.Delivered))
		dropped = append(dropped, float64(net.DroppedLoss+net.DroppedCrash+net.DroppedPart+net.DroppedDown))
		useful = append(useful, ratio(float64(t.res.Delivered), float64(net.Delivered)))
		// Every delivery tests the receipt bit, every first receipt
		// sets it and forwards once.
		bitOps = append(bitOps, float64(net.Delivered+int64(t.res.Delivered)))
		fwds = append(fwds, float64(t.res.Delivered))
		if m.sarena == nil {
			base = append(base, ex.wall.Seconds())
		} else {
			// Work spreads over the shard workers: attribute against
			// CPU seconds, not wall.
			base = append(base, ex.cpu.Seconds())
			cpuWall = append(cpuWall, ratio(ex.cpu.Seconds(), ex.wall.Seconds()))
			barriers = append(barriers, float64(t.barriers))
			perWindow = append(perWindow, ratio(float64(t.events), float64(t.barriers)))
			for _, w := range t.window {
				windows = append(windows, float64(w.Microseconds()))
			}
		}
	}
	out := map[string]float64{
		"sim.events":               median(events),
		"sim.depth":                median(depth),
		"simnet.sent":              median(sent),
		"simnet.delivered":         median(deliv),
		"simnet.dropped":           median(dropped),
		"simnet.entries_per_batch": 1, // the paper's algorithm sends single messages
		"core.useful_ratio":        median(useful),
	}
	nEvents := int(median(events))
	nsEvent := probeKernel(tr, int(median(depth)), m.cfg.N, probeOps(nEvents), ms(m.cfg.LatencyMs[0]), ms(m.cfg.LatencyMs[1]), m.seed)
	nsSend := probeSendTag(tr, m.cfg.N, int(median(depth)), probeOps(nEvents), m.net, m.seed) - nsEvent
	nsBit := probeBitset(tr, m.cfg.N, probeOps(int(median(bitOps))), m.seed)
	nsFwd := probeForward(tr, m.cfg.N, m.p.Fanout, probeOps(int(median(fwds))), m.seed)
	out["sim.ns_per_event"] = nsEvent
	out["simnet.ns_per_send"] = nsSend
	out["bitset.ns_per_op"] = nsBit
	out["xrand.ns_per_forward"] = nsFwd
	// core.self_s: the execution's time less the modules below it,
	// each priced by its probe.
	out["core.self_s"] = median(base) - (median(events)*nsEvent+median(sent)*nsSend+
		median(bitOps)*nsBit+median(fwds)*nsFwd)*1e-9
	if m.sarena != nil {
		out["shard.windows"] = median(barriers)
		out["shard.events_per_window"] = median(perWindow)
		out["shard.window_us.p50"] = quantile(windows, 0.5)
		out["shard.window_us.p90"] = quantile(windows, 0.9)
		out["shard.cpu_per_wall"] = median(cpuWall)
	}
	return out, nil
}
