package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"gossipkit/internal/dist"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// shardedTestConfig is the canonical sharded-test network: a latency
// model with a positive floor (the lookahead source) plus loss, so the
// cross-shard path sees drops as well as deliveries.
func shardedTestConfig() simnet.Config {
	return simnet.Config{
		Latency: simnet.UniformLatency{Lo: 2 * time.Millisecond, Hi: 9 * time.Millisecond},
		Loss:    simnet.BernoulliLoss{P: 0.05},
	}
}

func shardedTestParams(n int) Params {
	return Params{N: n, Fanout: dist.NewPoisson(5), AliveRatio: 0.9, Source: 1}
}

// shardedCampaign is a mid-run control campaign exercising every NetRun
// seam the scenario layer uses: fabric ops (crash, restart, loss and
// latency swaps), an additional publisher, and a re-gossip publish.
func shardedCampaign(run *NetRun) {
	run.Kernel.At(sim.Time(4*time.Millisecond), func() {
		run.Net.Crash(simnet.NodeID(7))
		run.Net.SetLoss(simnet.BernoulliLoss{P: 0.2})
		run.Publish(40) // additional publisher (or re-gossip if reached)
	})
	run.Kernel.At(sim.Time(9*time.Millisecond), func() {
		if run.Restartable(7) {
			run.Net.Restart(simnet.NodeID(7))
		}
		run.Net.SetLatency(simnet.UniformLatency{Lo: 3 * time.Millisecond, Hi: 6 * time.Millisecond})
		run.Publish(run.Delivered() % 50) // data-dependent target
	})
}

// TestShardedOneShardMatchesOracle pins the tentpole's shards=1 contract:
// byte-identical results AND telemetry against the single-kernel oracle for
// the same inputs — reliability, message counts, latency moments, probe
// curves, histograms, and the event trace.
func TestShardedOneShardMatchesOracle(t *testing.T) {
	p := shardedTestParams(300)
	cfg := shardedTestConfig()
	opts := obs.Options{TraceCapacity: 1 << 14}

	for _, tc := range []struct {
		name   string
		inject func(*NetRun)
	}{
		{"plain", nil},
		{"campaign", shardedCampaign},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracleProbe := obs.New(opts)
			want, err := oracleExecuteOnNetwork(p, cfg, xrand.New(42), tc.inject, nil, oracleProbe)
			if err != nil {
				t.Fatal(err)
			}
			shardProbe := obs.New(opts)
			got, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(42), tc.inject, nil, shardProbe, ShardOptions{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=1 result diverged from oracle:\n got %+v\nwant %+v", got, want)
			}
			gm, wm := shardProbe.Metrics(), oracleProbe.Metrics()
			if !reflect.DeepEqual(gm, wm) {
				t.Errorf("shards=1 probe metrics diverged from oracle:\n got %+v\nwant %+v", gm, wm)
			}
			if wm.Totals.Sent == 0 || len(wm.Infected) == 0 || len(wm.Trace) == 0 {
				t.Fatalf("degenerate oracle telemetry %+v", wm.Totals)
			}
		})
	}
}

// TestShardedFixedShardCountDeterministic pins the fixed-S>1 contract:
// the same seed replays byte-identically, including merged telemetry.
func TestShardedFixedShardCountDeterministic(t *testing.T) {
	p := shardedTestParams(400)
	cfg := shardedTestConfig()

	run := func() (NetResult, *obs.Metrics) {
		probe := obs.New(obs.Options{})
		res, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(7), shardedCampaign, nil, probe, ShardOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res, probe.Metrics()
	}
	res1, m1 := run()
	res2, m2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("shards=4 not deterministic:\n run1 %+v\n run2 %+v", res1, res2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("shards=4 telemetry not deterministic")
	}
	if res1.Delivered == 0 || res1.Net.Sent == 0 {
		t.Fatalf("degenerate sharded run %+v", res1)
	}
	if m1.Hops.Counts != nil {
		t.Error("hop histogram should be disabled on shards>1 runs")
	}
}

// TestShardedArenaReuseDeterministic pins pooling: a reused ShardArena
// (including one resized across shard counts) replays a run
// byte-identically against a fresh arena.
func TestShardedArenaReuseDeterministic(t *testing.T) {
	p := shardedTestParams(256)
	cfg := shardedTestConfig()

	fresh, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(9), nil, nil, nil, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sa := NewShardArena(4)
	if _, err := ExecuteOnNetworkSharded(shardedTestParams(100), cfg, xrand.New(1), nil, sa, nil, ShardOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	reused, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(9), nil, sa, nil, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Errorf("reused arena diverged:\n fresh  %+v\n reused %+v", fresh, reused)
	}
}

// TestShardedMaskInvariantAcrossShardCounts pins the RNG layout's key
// consequence: the failure mask is drawn from the root stream, which
// splitting never advances, so the alive set — and with it AliveCount and
// UpAtEnd-eligible membership — is identical across shard counts.
func TestShardedMaskInvariantAcrossShardCounts(t *testing.T) {
	p := shardedTestParams(300)
	cfg := shardedTestConfig()
	base, err := oracleExecuteOnNetwork(p, cfg, xrand.New(3), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		res, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(3), nil, nil, nil, ShardOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if res.AliveCount != base.AliveCount {
			t.Errorf("shards=%d AliveCount %d, oracle %d — mask not shard-count-invariant",
				shards, res.AliveCount, base.AliveCount)
		}
	}
}

// TestShardedReliabilityPinnedAcrossShardCounts is the in-package
// statistical half of the contract: different shard counts use different
// RNG streams, so results differ run-to-run but must agree in
// distribution. 25 seeds per shard count; the mean reliabilities must sit
// within a tolerance far tighter than the gap a bridging bug (lost or
// duplicated cross-shard traffic) would open.
func TestShardedReliabilityPinnedAcrossShardCounts(t *testing.T) {
	p := shardedTestParams(200)
	cfg := shardedTestConfig()
	const seeds = 25

	mean := func(shards int) float64 {
		total := 0.0
		for seed := 0; seed < seeds; seed++ {
			res, err := ExecuteOnNetworkSharded(p, cfg, xrand.New(uint64(1000+seed)), nil, nil, nil, ShardOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Reliability
		}
		return total / seeds
	}
	m1 := mean(1)
	for _, shards := range []int{2, 4} {
		m := mean(shards)
		if diff := math.Abs(m - m1); diff > 0.03 {
			t.Errorf("shards=%d mean reliability %.4f vs single-kernel %.4f (Δ=%.4f > 0.03)",
				shards, m, m1, diff)
		}
	}
}

// TestShardedProgressObserved pins the satellite progress seam: barriers
// report monotone virtual time and nondecreasing fired-event totals.
func TestShardedProgressObserved(t *testing.T) {
	p := shardedTestParams(300)
	var calls int
	var lastNow sim.Time
	var lastFired uint64
	_, err := ExecuteOnNetworkSharded(p, shardedTestConfig(), xrand.New(5), nil, nil, nil, ShardOptions{
		Shards: 4,
		Progress: func(events uint64, now sim.Time) {
			calls++
			if now < lastNow {
				t.Fatalf("barrier time went backwards: %v after %v", now, lastNow)
			}
			if events < lastFired {
				t.Fatalf("fired count went backwards: %d after %d", events, lastFired)
			}
			lastNow, lastFired = now, events
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never observed a barrier")
	}
	if lastFired == 0 {
		t.Fatal("no events reported fired")
	}
}

func TestEffectiveShards(t *testing.T) {
	floored := shardedTestConfig()
	cases := []struct {
		name      string
		requested int
		n         int
		cfg       simnet.Config
		want      int
	}{
		{"explicit", 4, 100, floored, 4},
		{"clampToN", 8, 3, floored, 3},
		{"noFloorFallsBack", 4, 100, simnet.Config{}, 1},
		{"zeroLatencyFallsBack", 4, 100, simnet.Config{Latency: simnet.ConstantLatency{}}, 1},
		{"tracerFallsBack", 4, 100, simnet.Config{
			Latency: simnet.ConstantLatency{D: time.Millisecond},
			Tracer:  func(simnet.Event) {},
		}, 1},
		{"one", 1, 100, simnet.Config{}, 1},
	}
	for _, c := range cases {
		if got := EffectiveShards(c.requested, c.n, c.cfg); got != c.want {
			t.Errorf("%s: EffectiveShards(%d, %d) = %d, want %d", c.name, c.requested, c.n, got, c.want)
		}
	}
	// requested<1 auto-selects GOMAXPROCS (clamped); just pin it's sane.
	if got := EffectiveShards(0, 1<<20, floored); got < 1 {
		t.Errorf("auto shard count %d < 1", got)
	}
}

// TestShardedBudgetPropagates pins abort semantics: a run that trips a
// shard kernel's event budget surfaces the error instead of hanging.
func TestShardedBudgetPropagates(t *testing.T) {
	// A recurring control event that never stops would exceed the control
	// kernel budget; simpler: tiny N with huge fanout exceeds the per-shard
	// budget of N*10000 only at absurd scale, so drive it via inject.
	p := Params{N: 8, Fanout: dist.NewFixed(2), AliveRatio: 1, Source: 0}
	inject := func(run *NetRun) {
		var tick func()
		at := sim.Time(time.Millisecond)
		tick = func() {
			run.Publish(3)
			at += sim.Time(time.Millisecond)
			run.Kernel.At(at, tick)
		}
		run.Kernel.At(at, tick)
	}
	_, err := ExecuteOnNetworkSharded(p, shardedTestConfig(), xrand.New(1), inject, nil, nil, ShardOptions{Shards: 2})
	if err == nil {
		t.Fatal("unbounded recurring campaign did not trip the budget")
	}
}
