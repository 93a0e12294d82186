package main

import (
	"fmt"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stream"
)

// stream-knee: one streaming run just below the saturation knee.

type streamConfig struct {
	Entry            string  `json:"entry"`
	N                int     `json:"n"`
	Rate             float64 `json:"rate_per_s"`
	DurationMs       int     `json:"duration_ms"`
	FanoutK          int     `json:"fanout_fixed"`
	BufferCap        int     `json:"buffer_cap"`
	Eviction         string  `json:"eviction"`
	Discipline       string  `json:"discipline"`
	Batch            bool    `json:"batch"`
	ActiveRounds     int     `json:"active_rounds"`
	RoundIntervalMs  int     `json:"round_interval_ms"`
	LatencyMs        [2]int  `json:"latency_ms"`
	ReliabilityFloor float64 `json:"reliability_floor"`
}

type streamRun struct {
	cfg   streamConfig
	seed  uint64
	sc    stream.Config
	net   simnet.Config
	arena *stream.Arena
}

type streamTrace struct {
	res    stream.Result
	events uint64
	end    sim.Time
}

func (c streamConfig) setup(seed uint64, tr *tracer, parent int) (instance, error) {
	sp := tr.begin("setup.inputs", parent)
	defer tr.end(sp)
	ev, err := stream.ParseEviction(c.Eviction)
	if err != nil {
		return nil, err
	}
	disc, err := stream.ParseDiscipline(c.Discipline)
	if err != nil {
		return nil, err
	}
	s := &streamRun{cfg: c, seed: seed, arena: stream.NewArena(),
		sc: stream.Config{
			N: c.N, Rate: c.Rate, Duration: ms(c.DurationMs), Fanout: dist.NewFixed(c.FanoutK),
			BufferCap: c.BufferCap, Eviction: ev, Discipline: disc, Batch: c.Batch,
			ActiveRounds: c.ActiveRounds, RoundInterval: ms(c.RoundIntervalMs),
		},
		net: simnet.Config{Latency: simnet.UniformLatency{Lo: ms(c.LatencyMs[0]), Hi: ms(c.LatencyMs[1])}},
	}
	return s, s.sc.Validate()
}

func (s *streamRun) exec(i int, tr *tracer, parent int) (execution, error) {
	r := execRNG(s.seed, i)
	var inject func(*core.NetRun)
	var k *sim.Kernel
	if tr != nil {
		inject = func(nr *core.NetRun) { k = nr.Kernel }
	}
	var res stream.Result
	sp := tr.begin("stream.RunProbed", parent)
	smp, err := timed(tr != nil, func() (e error) {
		res, e = stream.RunProbed(s.sc, s.net, r, inject, s.arena, nil)
		return e
	})
	tr.end(sp)
	if err != nil {
		return execution{}, err
	}
	sp = tr.begin("verify", parent)
	defer tr.end(sp)
	t := streamTrace{res: res}
	if k != nil {
		t.events, t.end = k.Fired(), k.Now()
	}
	ex := execution{sample: smp, entries: res.Net.SentEntries(), digest: digestOf(res), trace: t, full: true}
	return ex, s.check(res)
}

// check verifies the stream's conservation ledger against the fabric's
// entry counters and the delivery floor.
func (s *streamRun) check(res stream.Result) error {
	l, n := res.Ledger, res.Net
	switch {
	case l.Inserted != l.Evicted+l.Expired+l.Resident:
		return fmt.Errorf("copy ledger open: inserted %d != evicted %d + expired %d + resident %d",
			l.Inserted, l.Evicted, l.Expired, l.Resident)
	case l.Sends != n.SentEntries()+n.DownEntries():
		return fmt.Errorf("send ledger open: engine sends %d != sent %d + down %d entries",
			l.Sends, n.SentEntries(), n.DownEntries())
	case l.Receipts != n.DeliveredEntries():
		return fmt.Errorf("receipt ledger open: engine receipts %d != delivered %d entries", l.Receipts, n.DeliveredEntries())
	case n.InFlight() != 0:
		return fmt.Errorf("fabric ledger open: %d messages in flight at quiescence", n.InFlight())
	case res.Published == 0:
		return fmt.Errorf("no message published")
	case res.MeanReliability < s.cfg.ReliabilityFloor:
		return fmt.Errorf("mean reliability %.4f below the floor %g", res.MeanReliability, s.cfg.ReliabilityFloor)
	}
	return nil
}

func (s *streamRun) layers(traced []execution, tr *tracer) (map[string]float64, error) {
	var events, depth, sent, deliv, dropped, perBatch, entries, receipts, useful, evicted, expired, misses, walls, tags, batches, msgs []float64
	meanDelay := ms(s.cfg.LatencyMs[0]+s.cfg.LatencyMs[1]) / 2
	for _, ex := range traced {
		t := ex.trace.(streamTrace)
		net, l := t.res.Net, t.res.Ledger
		events = append(events, float64(t.events))
		depth = append(depth, littleDepth(t.events, meanDelay, t.end))
		sent = append(sent, float64(net.Sent))
		deliv = append(deliv, float64(net.Delivered))
		dropped = append(dropped, float64(net.DroppedLoss+net.DroppedCrash+net.DroppedPart+net.DroppedDown))
		perBatch = append(perBatch, ratio(float64(net.BatchEntries), float64(net.Batches)))
		entries = append(entries, float64(l.Sends))
		receipts = append(receipts, float64(l.Receipts))
		useful = append(useful, ratio(float64(t.res.Delivered), float64(l.Receipts)))
		evicted = append(evicted, float64(l.Evicted))
		expired = append(expired, float64(l.Expired))
		misses = append(misses, float64(l.RepairMisses))
		walls = append(walls, ex.wall.Seconds())
		tags = append(tags, float64(net.Sent-net.Batches))
		batches = append(batches, float64(net.Batches))
		msgs = append(msgs, float64(t.res.Scheduled))
	}
	out := map[string]float64{
		"sim.events":               median(events),
		"sim.depth":                median(depth),
		"simnet.sent":              median(sent),
		"simnet.delivered":         median(deliv),
		"simnet.dropped":           median(dropped),
		"simnet.entries_per_batch": median(perBatch),
		"stream.entries":           median(entries),
		"stream.receipts":          median(receipts),
		"stream.useful_ratio":      median(useful),
		"stream.evicted":           median(evicted),
		"stream.expired":           median(expired),
		"stream.repair_misses":     median(misses),
	}
	d := int(median(depth))
	nsEvent := probeKernel(tr, d, s.cfg.N, probeOps(int(median(events))), ms(s.cfg.LatencyMs[0]), ms(s.cfg.LatencyMs[1]), s.seed)
	nsSend := probeSendTag(tr, s.cfg.N, d, probeOps(int(median(tags))), s.net, s.seed) - nsEvent
	nsBatch := probeSendBatch(tr, s.cfg.N, d, probeOps(int(median(batches))), int(median(perBatch)), s.net, s.seed) - nsEvent
	// Every received entry tests one bit of the delivery matrix.
	nsGet := probeMessageBits(tr, int(median(msgs)), s.cfg.N, probeOps(int(median(receipts))), s.seed)
	out["sim.ns_per_event"] = nsEvent
	out["simnet.ns_per_send"] = nsSend
	out["simnet.ns_per_batch"] = nsBatch
	out["msgbits.ns_per_get"] = nsGet
	out["stream.self_s"] = median(walls) - (median(events)*nsEvent+median(tags)*nsSend+
		median(batches)*nsBatch+median(receipts)*nsGet)*1e-9
	return out, nil
}
