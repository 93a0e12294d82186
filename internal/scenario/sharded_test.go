package scenario

import (
	"math"
	"reflect"
	"testing"
	"time"

	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/protocols"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stream"
	"gossipkit/internal/xrand"
)

// shardedAdversarialCampaign is the satellite equivalence campaign: a
// crash wave into a bursty-loss episode, then a flash crowd republishing
// into the damage — every fabric seam (crash routing, per-shard loss
// cloning, publish deferral) under one scenario.
func shardedAdversarialCampaign() *Scenario {
	return New("crash-wave-burst", "crash wave + burst loss + flash crowd").
		At(5*time.Millisecond, CrashFraction(0.10)).
		At(8*time.Millisecond, BurstLoss(0.3, 0.3, 0.02, 0.5)).
		At(20*time.Millisecond, ClearLoss()).
		At(25*time.Millisecond, FlashCrowd(3))
}

func shardedScenarioConfig(shards int) RunConfig {
	return RunConfig{
		Params: core.Params{N: 200, Fanout: dist.NewPoisson(6), AliveRatio: 1, Source: 0},
		Shards: shards,
	}
}

// TestShardedScenarioMatrix pins the scenario layer's shard-count
// contract under an adversarial campaign: shard counts use different RNG
// streams, so individual runs differ, but 25-seed mean reliability must
// agree within a tolerance far below the damage a broken cross-shard
// bridge causes (the campaign kills ~10% of members and drops half the
// traffic for 12ms; a sharding bug that loses buffered traffic drags the
// mean toward zero).
func TestShardedScenarioMatrix(t *testing.T) {
	const seeds = 25
	mean := func(shards int) float64 {
		s := shardedAdversarialCampaign()
		cfg := shardedScenarioConfig(shards)
		total := 0.0
		for seed := 0; seed < seeds; seed++ {
			rep, err := Run(s, cfg, uint64(3000+seed))
			if err != nil {
				t.Fatal(err)
			}
			total += rep.Reliability
		}
		return total / seeds
	}
	base := mean(0) // one kernel
	for _, shards := range []int{2, 4} {
		m := mean(shards)
		if diff := math.Abs(m - base); diff > 0.05 {
			t.Errorf("shards=%d mean reliability %.4f vs oracle %.4f (Δ=%.4f > 0.05)",
				shards, m, base, diff)
		}
	}
}

// TestShardedScenarioOneShardMatchesDefault pins that Shards 0 and 1 are
// the same one-kernel run, and that a multi-shard run is seed-
// deterministic under a campaign.
func TestShardedScenarioOneShardMatchesDefault(t *testing.T) {
	s := shardedAdversarialCampaign()
	base, err := Run(s, shardedScenarioConfig(0), 77)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(s, shardedScenarioConfig(1), 77)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, base) {
		t.Errorf("Shards=1 diverged from default:\n got %+v\nwant %+v", one, base)
	}
	run2a, err := Run(s, shardedScenarioConfig(2), 77)
	if err != nil {
		t.Fatal(err)
	}
	run2b, err := Run(s, shardedScenarioConfig(2), 77)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run2a, run2b) {
		t.Errorf("Shards=2 campaign run not deterministic:\n run1 %+v\n run2 %+v", run2a, run2b)
	}
	if run2a.Crashed == 0 {
		t.Error("campaign crashed nobody — adversarial matrix is vacuous")
	}
}

// TestShardedScenarioRecurringAndStall exercises the NetRun.Pending seam
// on the sharded runtime: an unbounded recurrence and a stall watcher
// must both unwind once only campaign bookkeeping remains, instead of
// seeing an always-empty control kernel and dying (or spinning).
func TestShardedScenarioRecurringAndStall(t *testing.T) {
	s := New("recurring-crash", "rolling crashes with a stall rescue").
		Every(6*time.Millisecond, CrashFraction(0.02)).
		OnStall(15*time.Millisecond, Regossip(2))
	rep, err := Run(s, shardedScenarioConfig(4), 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashed < 2 {
		t.Errorf("recurring crash wave fired %d crashes; the recurrence died early", rep.Crashed)
	}
	if rep.Delivered == 0 {
		t.Error("nothing delivered")
	}
}

// sharedArenaCampaign leaves every kind of state a run can install on a
// pooled kernel and network and never undoes it: control events, a
// partition predicate, loss and latency swaps, a crash, and an extra
// publish.
func sharedArenaCampaign(run *core.NetRun) {
	run.Kernel.At(sim.Time(3*time.Millisecond), func() {
		run.Net.SetPartition(simnet.SplitPartition(func(id simnet.NodeID) bool { return id%3 == 0 }))
		run.Net.SetLoss(simnet.BernoulliLoss{P: 0.2})
		run.Net.Crash(simnet.NodeID(9))
		run.Publish(17)
	})
	run.Kernel.At(sim.Time(12*time.Millisecond), func() {
		run.Net.SetLatency(simnet.UniformLatency{Lo: 2 * time.Millisecond, Hi: 4 * time.Millisecond})
	})
}

// TestShardArenaSharedAcrossExecutors drives one core.NetArena through
// interleaved executions on every front end that leases from it — the
// protocol runtime (NetArena.Lease), the paper at one and two shards,
// and the streaming engine riding the arena — and requires each result
// to equal the same run on a fresh arena. Lease and Sharded(1) share one
// kernel and one network, so any handler, route hook, partition
// predicate, loss model or pending event surviving from the previous
// executor would show up here as a diverged result.
func TestShardArenaSharedAcrossExecutors(t *testing.T) {
	net := simnet.Config{Latency: simnet.UniformLatency{Lo: time.Millisecond, Hi: 6 * time.Millisecond}}
	paper := core.Params{N: 240, Fanout: dist.NewPoisson(5), AliveRatio: 0.9}
	proto := protocols.PbcastParams{N: 150, Fanout: 3, Rounds: 6, AliveRatio: 0.95}
	strm := stream.Config{N: 96, Rate: 300, Duration: 60 * time.Millisecond, Fanout: dist.NewFixed(3),
		AliveRatio: 0.9, BufferCap: 8, Discipline: stream.DisciplinePushPull, Batch: true}

	type execution func(arena *core.NetArena, seed uint64) (any, error)
	runPaper := func(shards int) execution {
		return func(arena *core.NetArena, seed uint64) (any, error) {
			return core.ExecuteOnNetworkSharded(paper, net, xrand.New(seed), sharedArenaCampaign,
				arena.Sharded(shards), nil, core.ShardOptions{Shards: shards})
		}
	}
	runs := []struct {
		name string
		exec execution
	}{
		{"protocol", func(arena *core.NetArena, seed uint64) (any, error) {
			return protocols.RunOnDES(proto, protocols.DESConfig{Net: net}, xrand.New(seed), sharedArenaCampaign, arena)
		}},
		{"paper/shards=1", runPaper(1)},
		{"paper/shards=2", runPaper(2)},
		{"stream", func(arena *core.NetArena, seed uint64) (any, error) {
			return stream.RunProbed(strm, net, xrand.New(seed), sharedArenaCampaign, stream.NewArenaOn(arena), nil)
		}},
	}
	arena := core.NewNetArena()
	// Two passes in opposite orders put every executor after every other.
	order := []int{0, 1, 2, 3, 0, 2, 1, 3, 2, 0, 3, 1}
	for i, k := range order {
		seed := uint64(100 + i)
		want, err := runs[k].exec(nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runs[k].exec(arena, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d (%s after %s): shared-arena run diverged from a fresh arena:\n got %+v\nwant %+v",
				i, runs[k].name, runs[order[max(i-1, 0)]].name, got, want)
		}
	}
}
