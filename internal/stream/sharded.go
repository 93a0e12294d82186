package stream

import (
	"fmt"

	"gossipkit/internal/core"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// RunSharded executes one streaming run with the full seam set: inject
// (non-nil) receives the core.NetRun injection facade before the clock
// starts, so scenario campaigns drive crash waves and burst loss while
// the stream is live; arena (non-nil) recycles run state across runs;
// probe (non-nil) collects streaming telemetry. Results are
// byte-identical whatever the arena or probe state. Members are
// partitioned into contiguous blocks across shard kernels; with more than
// one shard they advance in lookahead windows from the latency model's
// floor on the conservative-PDES runtime, cross-shard messages crossing
// at window barriers.
//
// RNG layout: the publish schedule comes from r.Split(publishSplit) —
// splits never advance r — then the failure mask consumes r. With one
// shard the run continues on r and the network stream is
// r.Split(netSplit); shard s of a multi-shard run draws from
// r.Split(shardSplit+s) and its network from that stream's netSplit.
//
// Determinism contract (matching the core executor):
//   - shards=1: one kernel drained to quiescence; the former
//     single-kernel executor, kept in oracle_test.go, pins it byte for
//     byte.
//   - fixed shards>1: byte-identical across repeated runs and hosts.
//   - across shard counts: statistically pinned — the publish schedule
//     and failure mask are identical (both from non-consuming splits or
//     from r before any shard stream is used), but fanout and latency
//     draws come from per-shard streams.
//
// With more than one shard the probe fans out to per-shard children and
// adopts their merged telemetry; the active-message gauge lives on shard
// 0. opts.Shards below 1 auto-selects GOMAXPROCS; configurations without
// a positive latency floor fall back to one shard.
func RunSharded(cfg Config, netCfg simnet.Config, r *xrand.RNG,
	inject func(*core.NetRun), arena *Arena, probe *obs.StreamProbe, opts core.ShardOptions) (Result, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return Result{}, err
	}
	if arena == nil {
		arena = NewArena()
	}
	shards := core.EffectiveShards(opts.Shards, cfg.N, netCfg)
	sh := arena.schedule(cfg, cfg.interval(netCfg), r)
	sa := arena.net.Sharded(shards)
	ss := sa.LeaseSharded(shards, cfg.N, netCfg)
	kernels, ctl, sn, group := ss.Kernels, ss.Control, ss.Net, ss.Group
	block := (cfg.N + shards - 1) / shards

	// RNG layout: worker streams split off r (never advancing it), so
	// the mask draw below is shard-count independent; with one shard the
	// worker stream is r itself.
	workers, rngs := arena.leaseWorkers(shards)
	for s := range rngs {
		rngs[s] = r
		if shards > 1 {
			rngs[s] = r.Split(shardSplit + uint64(s))
		}
	}
	pubBy := arena.publishLists(sh, shards, block)
	bud := budget(cfg, sh)
	group.Each(func(s int) {
		// Per-shard state resets on the shard's own goroutine
		// (first-touch locality of the kernel queue, network pools,
		// delivery matrix and rumor buffers).
		kernels[s].Reset()
		kernels[s].SetBudget(bud)
		sn.ResetShard(s, kernels[s], rngs[s].Split(netSplit))
		lo, hi := s*block, min((s+1)*block, cfg.N)
		var pend *core.MessageBits
		if cfg.Discipline == DisciplinePushPull {
			pend = sa.ShardNackBits(s, sh.M, hi-lo)
		}
		workers[s].reset(s, lo, hi, sn.Shard(s), rngs[s], sh,
			sa.ShardMessageBits(s, sh.M, hi-lo), pend, nil, pubBy[s])
	})
	if shards > 1 {
		ctl.Reset()
	}
	sh.mask = ss.Mask
	sh.mask.FillBernoulli(cfg.N, cfg.AliveRatio, 0, r)
	sh.view = cfg.View
	if sh.view == nil {
		sh.view = membership.NewFullView(cfg.N)
	}

	if probe != nil {
		if shards == 1 {
			workers[0].probe = probe
			probe.Attach(sn.Shard(0), &workers[0].occ, &workers[0].act)
		} else {
			for s, child := range probe.ShardProbes(shards) {
				workers[s].probe = child
				var act *int64
				if s == 0 {
					act = &workers[0].act
				}
				child.Attach(sn.Shard(s), &workers[s].occ, act)
			}
		}
	}

	for _, w := range workers {
		w.nw.RegisterAll(w.handle)
		w.nw.RegisterBatchAll(w.handleBatch)
	}
	group.Each(func(s int) {
		for id := s * block; id < min((s+1)*block, cfg.N); id++ {
			if !sh.mask.Alive(id) {
				sn.Shard(s).Crash(simnet.NodeID(id))
			}
		}
		workers[s].armPublishes(kernels[s])
		workers[s].installTick(kernels[s])
	})

	if inject != nil {
		inject(core.NewNetRunFuncs(ctl, sn, sh.view, sh.mask,
			func(id int) bool { return hasReceivedLatest(sh, workers, cfg.N, id, ctl.Now()) },
			func() int {
				total := 0
				for _, w := range workers {
					total += w.firstTotal
				}
				return total
			},
			func() int {
				n := ctl.Pending() + sn.Buffered()
				if shards > 1 {
					for _, k := range kernels {
						n += k.Pending()
					}
				}
				return n
			},
			func(id int) {
				if id < 0 || id >= cfg.N {
					return
				}
				// Latest is resolved at the barrier (workers parked);
				// the publish itself executes on the owning shard's
				// clock.
				latest := latestPublished(sh, ctl.Now())
				s := id / block
				now := ctl.Now()
				if shards == 1 {
					workers[0].scenarioPublish(id, latest, now)
					return
				}
				kernels[s].At(now, func() { workers[s].scenarioPublish(id, latest, now) })
			}))
	}

	var onBarrier func(now sim.Time, fired uint64)
	if opts.Progress != nil {
		onBarrier = func(now sim.Time, fired uint64) { opts.Progress(fired, now) }
	}
	if err := group.Run(sn.Flush, sn.Buffered, onBarrier); err != nil {
		return Result{}, fmt.Errorf("stream: execution aborted: %w", err)
	}
	if probe != nil {
		if shards == 1 {
			probe.Finish(ctl.Now())
		} else {
			for s := range workers {
				workers[s].probe.Finish(kernels[s].Now())
			}
			probe.AdoptShards()
		}
	}
	end := ctl.Now()
	for _, k := range kernels {
		if k.Now() > end {
			end = k.Now()
		}
	}
	return reduce(cfg, sh, workers, sn.Stats(), end), nil
}
