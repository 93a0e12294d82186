package core

import (
	"fmt"
	"runtime"
	"time"

	"gossipkit/internal/bitset"
	"gossipkit/internal/dist"
	"gossipkit/internal/failure"
	"gossipkit/internal/membership"
	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// shardSplit offsets the per-shard RNG split indices on the run's root
// stream (shard s draws from r.Split(shardSplit+s)); chosen to collide
// with no other split constant in the tree. Splitting never advances the
// parent, so the failure mask — drawn from r after the splits — is
// byte-identical across every shard count.
const shardSplit = 0x5a7d00

// ShardOptions parameterizes a sharded network execution.
type ShardOptions struct {
	// Shards is the shard-kernel count; values below 1 mean
	// runtime.GOMAXPROCS(0). The executor itself falls back to one shard
	// when the latency model has no positive floor (no lookahead — see
	// simnet.LatencyFloorer) or a shared Config.Tracer is installed.
	Shards int
	// Progress, if non-nil, observes every window barrier with the
	// barrier's virtual time and the total kernel events fired so far —
	// the live-progress source for single long runs. Called from the
	// coordinator goroutine.
	Progress func(events uint64, now sim.Time)
}

// EffectiveShards resolves the shard count opts-style callers should
// expect ExecuteOnNetworkSharded to use for a run of n members over cfg:
// GOMAXPROCS for requests below 1, clamped to n, and 1 whenever the
// configuration cannot shard (no positive latency floor, or a shared
// tracer).
func EffectiveShards(requested, n int, cfg simnet.Config) int {
	s := requested
	if s < 1 {
		s = runtime.GOMAXPROCS(0)
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	if s > 1 && (cfg.Tracer != nil || latencyFloor(cfg.Latency) <= 0) {
		return 1
	}
	return s
}

// latencyFloor returns the model's guaranteed minimum delay, or 0 when it
// has none (nil models mean zero latency).
func latencyFloor(m simnet.LatencyModel) time.Duration {
	f, ok := m.(simnet.LatencyFloorer)
	if !ok {
		return 0
	}
	d, ok := f.LatencyFloor()
	if !ok || d < 0 {
		return 0
	}
	return d
}

// shardState is one shard's private slice of the run state. Everything
// here is written by the shard's worker goroutine during windows (and by
// the coordinator only while workers are parked); received is indexed by
// (id − base) so no two shards ever share a bitset word. The run's
// read-only inputs (fanout, view, mask) and the shard's own network are
// cached here so the send path never indexes a shard table. The trailing
// pad keeps neighboring shards' hot counters off each other's cache lines.
type shardState struct {
	received  bitset.Bits
	targets   []int
	rng       *xrand.RNG
	probe     *obs.Probe
	net       *simnet.Network
	fanout    dist.Distribution
	view      membership.View
	mask      *failure.Mask
	base      int
	delivered int
	msgs      int
	wasted    int
	dups      int
	upAtEnd   int
	delivUp   int
	spread    sim.Time
	lat       stats.Running
	_         [64]byte
}

// forward gossips m from self: one fanout draw, one target sample, one
// send per target.
func (st *shardState) forward(self int) {
	f := st.fanout.Sample(st.rng)
	st.targets = st.view.SampleTargets(st.targets, self, f, st.rng)
	st.msgs += len(st.targets)
	st.probe.ObserveFanout(len(st.targets))
	for _, v := range st.targets {
		if !st.mask.Alive(v) {
			st.wasted++
		}
		st.net.Send(simnet.NodeID(self), simnet.NodeID(v), nil)
	}
}

// receive records id's first receipt at now and forwards. from is the
// forwarding member, or -1 for an out-of-band receipt (an additional
// publisher injected by a campaign).
func (st *shardState) receive(id, from int, now sim.Time) {
	st.received.Set(id - st.base)
	st.delivered++
	st.lat.Add(now.Seconds())
	if now > st.spread {
		st.spread = now
	}
	st.probe.ObserveFirstReceipt(id, from, now)
	st.forward(id)
}

// onMessage is the shard's one shared handler (index dispatch on msg.To).
// Fail-stop members are crashed at the network layer, so it only ever
// sees alive-at-delivery members. (Crashing also counts the paper's
// "wasted" sends as crash drops.)
func (st *shardState) onMessage(now sim.Time, msg simnet.Message) {
	id := int(msg.To)
	if st.received.Get(id - st.base) {
		st.dups++
		return
	}
	st.receive(id, int(msg.From), now)
}

// ShardArena pools the per-run state of network executions — the shard
// and control kernels, the sharded fabric, the failure mask, the window
// group, and every shard's bitsets and buffers. One arena serves many
// runs, at any shard count, and after the first run at a given shape an
// execution performs zero O(n)-sized allocations. It is single-goroutine
// state between runs (the execution itself fans out to the shard
// workers); never share one across workers.
type ShardArena struct {
	kernels  []*sim.Kernel
	ctl      *sim.Kernel // created by the first multi-shard lease
	net      *simnet.ShardedNet
	mask     *failure.Mask
	group    sim.ShardGroup
	states   []shardState
	msgBits  []*MessageBits // per-shard delivery matrices (streaming runs)
	nackBits []*MessageBits // per-shard pending-repair matrices (push-pull)
}

// NewShardArena returns an empty arena for the given shard count;
// buffers grow on first use.
func NewShardArena(shards int) *ShardArena {
	a := &ShardArena{mask: &failure.Mask{}, net: simnet.NewShardedNet()}
	a.ensure(shards)
	return a
}

// ensure sizes the arena for `shards` shard kernels. Pooled per-shard
// state beyond the count is kept for later leases at more shards.
func (a *ShardArena) ensure(shards int) {
	a.kernels = resize(a.kernels, shards)
	for s, k := range a.kernels {
		if k == nil {
			a.kernels[s] = sim.New()
		}
	}
	if shards > 1 && a.ctl == nil {
		a.ctl = sim.New()
	}
	a.states = resize(a.states, shards)
	a.msgBits = resize(a.msgBits, shards)
	a.nackBits = resize(a.nackBits, shards)
}

// resize returns s with length n, keeping every element already in its
// capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// ExecuteOnNetworkSharded runs one execution of the paper's algorithm as
// an event-driven protocol over a simulated network: each first receipt
// triggers fanout selection and sends, each send incurs the network's
// latency and loss. Members are partitioned into contiguous blocks across
// shard kernels; with more than one shard they advance in lookahead
// windows derived from the latency model's floor on the conservative-PDES
// runtime, and cross-shard messages cross at window barriers (see
// sim.ShardGroup and simnet.ShardedNet). One shard is the plain
// single-kernel execution every other entry point runs.
//
// Determinism contract:
//   - shards=1: the run stream is r, the network stream r.Split(0xfeed),
//     and the control kernel is the shard kernel, so control events
//     interleave with deliveries on one queue and the run is a plain
//     drain. The former single-kernel executor, kept in oracle_test.go,
//     pins this byte for byte.
//   - fixed shards>1: byte-identical across repeated runs and across
//     hosts — shard s draws from r.Split(shardSplit+s), windows are cut
//     at deterministic virtual times, and barriers flush the per-pair
//     buffers in a fixed order, so scheduling nondeterminism never
//     reaches the simulation.
//   - across shard counts: statistically pinned, not byte-identical —
//     the failure mask is identical (drawn from r, which splitting never
//     advances) but fanout and latency draws come from different
//     streams, so results agree in distribution (the equivalence tests
//     pin mean reliability across shard counts).
//
// inject (if non-nil) is called with the run's NetRun after setup and
// before the source publishes at t=0, so campaigns can schedule
// mid-execution actions. sa (nil for a throwaway arena) recycles run
// state; results are byte-identical whether it is fresh or recycled.
// The probe, when non-nil, observes the run without consuming its RNG
// streams; with more than one shard it fans out to per-shard child
// probes and adopts their merged telemetry (hop histograms are
// unavailable then: a cross-shard sender's hop count is unknown to the
// receiving shard). opts.Shards below 1 auto-selects GOMAXPROCS;
// executions whose latency model has no positive floor fall back to one
// shard.
func ExecuteOnNetworkSharded(p Params, netCfg simnet.Config, r *xrand.RNG, inject func(*NetRun), sa *ShardArena, probe *obs.Probe, opts ShardOptions) (NetResult, error) {
	if err := p.Validate(); err != nil {
		return NetResult{}, err
	}
	shards := EffectiveShards(opts.Shards, p.N, netCfg)
	if sa == nil {
		sa = NewShardArena(shards)
	}
	run := sa.LeaseSharded(shards, p.N, netCfg)
	kernels, ctl, sn, mask, group := run.Kernels, run.Control, run.Net, run.Mask, run.Group
	block := (p.N + shards - 1) / shards
	view := p.view()

	// RNG layout. Splits never advance r, so the mask draw below is
	// independent of the shard count.
	states := sa.states
	for s := range states {
		st := &states[s]
		st.rng = r
		if shards > 1 {
			st.rng = r.Split(shardSplit + uint64(s))
		}
		st.fanout, st.view, st.mask, st.base = p.Fanout, view, mask, s*block
		st.probe = nil
	}
	group.Each(func(s int) {
		// Per-shard state is reset on the shard's own goroutine: the
		// kernel queue, the network's bitsets and pools, and the local
		// received bitset are first-touched by the topology that runs
		// them.
		st := &states[s]
		kernels[s].Reset()
		kernels[s].SetBudget(uint64(p.N) * 10000)
		sn.ResetShard(s, kernels[s], st.rng.Split(0xfeed))
		st.net = sn.Shard(s)
		st.received.Reset(min(block, p.N-st.base))
		st.delivered, st.msgs, st.wasted, st.dups = 0, 0, 0, 0
		st.upAtEnd, st.delivUp = 0, 0
		st.spread = 0
		st.lat = stats.Running{}
	})
	if shards > 1 {
		ctl.Reset()
	}
	p.drawMaskInto(mask, r)

	if probe != nil {
		if shards == 1 {
			states[0].probe = probe
			probe.Attach(sn.Shard(0), p.N, &states[0].delivered)
		} else {
			for s, child := range probe.ShardProbes(shards) {
				states[s].probe = child
				child.Attach(sn.Shard(s), p.N, &states[s].delivered)
			}
		}
	}

	for s := range states {
		states[s].net.RegisterAll(states[s].onMessage)
	}
	group.Each(func(s int) {
		for id := s * block; id < min((s+1)*block, p.N); id++ {
			if !mask.Alive(id) {
				states[s].net.Crash(simnet.NodeID(id))
			}
		}
	})

	if inject != nil {
		inject(&NetRun{
			Kernel: ctl,
			Net:    sn,
			View:   view,
			mask:   mask,
			hasReceived: func(id int) bool {
				s := id / block
				return states[s].received.Get(id - s*block)
			},
			delivered: func() int {
				total := 0
				for s := range states {
					total += states[s].delivered
				}
				return total
			},
			pending: func() int {
				n := ctl.Pending() + sn.Buffered()
				if shards > 1 {
					for _, k := range kernels {
						n += k.Pending()
					}
				}
				return n
			},
			publish: func(id int) {
				if id < 0 || id >= p.N || !sn.Up(simnet.NodeID(id)) || !mask.Alive(id) {
					return
				}
				st := &states[id/block]
				act := func(now sim.Time) {
					if st.received.Get(id - st.base) {
						st.forward(id) // re-gossip
						return
					}
					st.receive(id, -1, now) // additional publisher
				}
				if shards == 1 {
					act(ctl.Now())
					return
				}
				// The publish must execute on the owning shard's clock:
				// park it there at the control kernel's current time
				// (strictly ahead of the shard's clock, which stopped
				// before the barrier).
				now := ctl.Now()
				kernels[id/block].At(now, func() { act(now) })
			},
		})
	}

	// The source initiates at t=0 (workers not yet running, so seeding
	// shard-owned state from here is safe; unless an injection hook
	// already published from it directly): no latency sample for the
	// source.
	if st := &states[p.Source/block]; !st.received.Get(p.Source - st.base) {
		st.received.Set(p.Source - st.base)
		st.delivered++
		st.probe.ObserveSeed(p.Source)
		st.forward(p.Source)
	}

	var onBarrier func(now sim.Time, fired uint64)
	if opts.Progress != nil {
		onBarrier = func(now sim.Time, fired uint64) { opts.Progress(fired, now) }
	}
	if err := group.Run(sn.Flush, sn.Buffered, onBarrier); err != nil {
		return NetResult{}, fmt.Errorf("core: network execution aborted: %w", err)
	}
	if probe != nil {
		if shards == 1 {
			probe.Finish(ctl.Now())
		} else {
			for s := range states {
				states[s].probe.Finish(kernels[s].Now())
			}
			probe.AdoptShards()
		}
	}

	group.Each(func(s int) {
		st := &states[s]
		for id := st.base; id < min(st.base+block, p.N); id++ {
			if st.net.Up(simnet.NodeID(id)) {
				st.upAtEnd++
				if st.received.Get(id - st.base) {
					st.delivUp++
				}
			}
		}
	})

	res := NetResult{Result: Result{AliveCount: mask.AliveCount()}}
	for s := range states {
		st := &states[s]
		res.Delivered += st.delivered
		res.MessagesSent += st.msgs
		res.WastedOnFailed += st.wasted
		res.Duplicates += st.dups
		res.UpAtEnd += st.upAtEnd
		res.DeliveredUp += st.delivUp
		res.DeliveryLatency.Merge(st.lat)
		if d := st.spread.Duration(); d > res.SpreadTime {
			res.SpreadTime = d
		}
	}
	if res.AliveCount > 0 {
		res.Reliability = float64(res.Delivered) / float64(res.AliveCount)
	}
	if res.UpAtEnd > 0 {
		res.SurvivorReliability = float64(res.DeliveredUp) / float64(res.UpAtEnd)
	}
	res.Net = sn.Stats()
	return res, nil
}
