package stream

import (
	"sort"

	"gossipkit/internal/core"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// Run executes one streaming run on a single kernel with a throwaway
// arena.
func Run(cfg Config, netCfg simnet.Config, r *xrand.RNG) (Result, error) {
	return RunProbed(cfg, netCfg, r, nil, nil, nil)
}

// RunProbed is Run with the full seam set on one kernel — RunSharded at
// one shard.
func RunProbed(cfg Config, netCfg simnet.Config, r *xrand.RNG,
	inject func(*core.NetRun), arena *Arena, probe *obs.StreamProbe) (Result, error) {
	return RunSharded(cfg, netCfg, r, inject, arena, probe, core.ShardOptions{Shards: 1})
}

// budget bounds the kernel event count — a runaway guard far above any
// real run: per-round gossip is at most every member emptying a full
// buffer to a generous fanout, plus the eager/flood per-receipt cascades.
func budget(cfg Config, sh *runShared) uint64 {
	perRound := uint64(cfg.N+1) * uint64(cfg.BufferCap*64+64)
	return uint64(sh.lastRound+16)*perRound + uint64(sh.M+1)*uint64(cfg.N+1)*8
}

// latestPublished returns the most recent schedule index published at or
// before now (-1 for none), skipping dead-source entries. Callers hold
// the barrier (workers parked) or the single kernel.
func latestPublished(sh *runShared, now sim.Time) int {
	i := sort.Search(sh.M, func(j int) bool { return sh.pubTime[j] > now }) - 1
	for ; i >= 0; i-- {
		if sh.pubState[i] == pubDone {
			return i
		}
	}
	return -1
}

// hasReceivedLatest reports whether id holds the most recently published
// message — the streaming reading of the single-rumor NetRun predicate
// (true before the first publish: there is nothing to lack).
func hasReceivedLatest(sh *runShared, ws []*worker, n, id int, now sim.Time) bool {
	latest := latestPublished(sh, now)
	if latest < 0 || id < 0 || id >= n {
		return true
	}
	for _, w := range ws {
		if id >= w.base && id < w.limit {
			return w.bits.Get(latest, id-w.base)
		}
	}
	return true
}

// reduce folds the workers' tallies into the run Result. The
// Result.Messages slice is the run's only O(M) allocation — and under
// Config.SummaryOnly it is skipped entirely: the same per-message pass
// folds outcome tallies, reliability moments, and loss attribution into
// the aggregate fields, so a summary run makes zero O(M) allocations and
// every non-Messages field is identical to a full run's.
func reduce(cfg Config, sh *runShared, ws []*worker, net simnet.Stats, end sim.Time) Result {
	res := Result{
		N:              cfg.N,
		AliveCount:     sh.mask.AliveCount(),
		Scheduled:      sh.M,
		Net:            net,
		End:            end.Duration(),
		MinReliability: 1,
		SummaryOnly:    cfg.SummaryOnly,
	}
	if !cfg.SummaryOnly {
		res.Messages = make([]MessageResult, sh.M)
	}
	for _, w := range ws {
		res.Delivered += w.firstTotal
		res.Ledger.Inserted += w.inserted
		res.Ledger.Evicted += w.evicted
		res.Ledger.Expired += w.expired
		res.Ledger.Resident += w.occ
		res.Ledger.RepairMisses += w.repairMiss
		res.DeliveryLatency.Merge(w.lat)
		if int(w.round) > res.Rounds {
			res.Rounds = int(w.round)
		}
	}
	var relSum float64
	for m := 0; m < sh.M; m++ {
		var sends, recvs int64
		var first, dups, evics int32
		for _, w := range ws {
			sends += w.sends[m]
			recvs += w.recvs[m]
			first += w.first[m]
			dups += w.dups[m]
			evics += w.evics[m]
		}
		res.Ledger.Sends += sends
		res.Ledger.Receipts += recvs
		res.Duplicates += int64(dups)
		drops := sends - recvs
		var rel float64
		if res.AliveCount > 0 {
			rel = float64(first) / float64(res.AliveCount)
		}
		var outcome MessageOutcome
		switch {
		case sh.pubState[m] == pubSkipped:
			outcome = MsgSkipped
			res.Skipped++
		case int(first) == res.AliveCount:
			outcome = MsgDelivered
			res.FullyDelivered++
		case evics > 0:
			outcome = MsgLostEviction
			res.LostEviction++
		case drops > 0:
			outcome = MsgLostDrop
			res.LostDrop++
		default:
			outcome = MsgDied
			res.Died++
		}
		if !cfg.SummaryOnly {
			res.Messages[m] = MessageResult{
				ID:          m,
				Source:      int(sh.source[m]),
				PublishedAt: sh.pubTime[m].Duration(),
				Delivered:   int(first),
				Reliability: rel,
				Duplicates:  int(dups),
				Evictions:   int(evics),
				Drops:       drops,
				Outcome:     outcome,
			}
		}
		if outcome == MsgSkipped {
			continue
		}
		res.Published++
		res.Reliability.Add(rel)
		relSum += rel
		if rel < res.MinReliability {
			res.MinReliability = rel
		}
	}
	if res.Published > 0 {
		res.MeanReliability = relSum / float64(res.Published)
	} else {
		res.MinReliability = 0
	}
	res.MessagesSent = res.Ledger.Sends
	return res
}
