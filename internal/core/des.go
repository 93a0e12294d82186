package core

import (
	"time"

	"gossipkit/internal/bitset"
	"gossipkit/internal/failure"
	"gossipkit/internal/membership"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/stats"
	"gossipkit/internal/xrand"
)

// NetResult extends Result with timing information from a discrete-event
// execution over a simulated network.
type NetResult struct {
	Result
	// SpreadTime is the simulated time at which the last alive member
	// received m.
	SpreadTime time.Duration
	// DeliveryLatency summarizes per-member first-receipt latencies.
	DeliveryLatency stats.Running
	// Net is the network's final counters.
	Net simnet.Stats
	// UpAtEnd is the number of nodes still up when the execution drained
	// (differs from AliveCount when fault-injection hooks crash or
	// restart nodes mid-run).
	UpAtEnd int
	// DeliveredUp is the number of nodes that received m and were still
	// up at the end.
	DeliveredUp int
	// SurvivorReliability is DeliveredUp/UpAtEnd: delivery measured over
	// the members that survived the whole execution.
	SurvivorReliability float64
}

// NetRun exposes a running network execution to fault-injection hooks (the
// scenario engine in internal/scenario schedules its timed actions through
// it). All methods must be called from the kernel goroutine — i.e. from
// inside scheduled events or before the run starts.
type NetRun struct {
	// Kernel is the discrete-event driver; hooks schedule future actions
	// with Kernel.At / Kernel.After. On a sharded execution this is the
	// control kernel: its events fire at window barriers with every shard
	// worker parked, which is exactly when shard state is safely mutable.
	Kernel *sim.Kernel
	// Net is the network fabric under execution (crash, restart,
	// partition, loss and latency swaps) — a single *simnet.Network or
	// the sharded *simnet.ShardedNet, behind one control surface.
	Net simnet.Fabric
	// View is the membership view targets are drawn from; scenario churn
	// mutates it when it is a *membership.PartialViews.
	View        membership.View
	mask        *failure.Mask
	hasReceived func(id int) bool
	delivered   func() int
	pending     func() int
	publish     func(id int)
}

// NewNetRun assembles the injection facade for a simulation front end
// other than this package's own executor — the protocol baseline runtime
// in internal/protocols builds one so scenario campaigns can drive its
// executions through the exact seam they drive the paper's algorithm
// through. received must be the run's first-receipt bitset, delivered a
// pointer to its delivered-member counter, and publish the protocol's
// out-of-band publish hook (may be nil for protocols without one).
func NewNetRun(kernel *sim.Kernel, net simnet.Fabric, view membership.View,
	mask *failure.Mask, received *bitset.Bits, delivered *int, publish func(id int)) *NetRun {
	if publish == nil {
		publish = func(int) {}
	}
	return &NetRun{
		Kernel: kernel, Net: net, View: view, mask: mask,
		hasReceived: received.Get,
		delivered:   func() int { return *delivered },
		publish:     publish,
	}
}

// NewNetRunFuncs is NewNetRun for front ends whose receipt state is not a
// single bitset — the streaming engine's per-message delivery matrix, for
// example — so the predicates are supplied directly. pending may be nil
// (NetRun falls back to Kernel.Pending); publish may be nil (a no-op).
func NewNetRunFuncs(kernel *sim.Kernel, net simnet.Fabric, view membership.View,
	mask *failure.Mask, hasReceived func(id int) bool, delivered func() int,
	pending func() int, publish func(id int)) *NetRun {
	if publish == nil {
		publish = func(int) {}
	}
	return &NetRun{
		Kernel: kernel, Net: net, View: view, mask: mask,
		hasReceived: hasReceived,
		delivered:   delivered,
		pending:     pending,
		publish:     publish,
	}
}

// HasReceived reports whether id has received the multicast so far.
func (nr *NetRun) HasReceived(id int) bool { return nr.hasReceived(id) }

// Delivered returns the number of members that have received the multicast
// so far. Stall-triggered scenario steps watch this counter to detect a
// spread that has stopped making progress.
func (nr *NetRun) Delivered() int { return nr.delivered() }

// Pending returns the number of live events still scheduled across the
// execution — on a sharded run the control kernel, every shard kernel,
// and the cross-shard buffers together. Recurring scenario steps use it
// (not Kernel.Pending, which sees only the control kernel) to decide
// whether the execution is still alive.
func (nr *NetRun) Pending() int {
	if nr.pending != nil {
		return nr.pending()
	}
	return nr.Kernel.Pending()
}

// Restartable reports whether id may be restarted: only members that were
// alive under the execution's initial failure mask have a registered
// handler; mask-failed members are permanently gone (fail-stop) and
// restarting them would create zombies that absorb messages without
// processing them.
func (nr *NetRun) Restartable(id int) bool { return nr.mask.Alive(id) }

// Publish makes id gossip the message: if id has not received m yet it
// obtains it out of band (an additional publisher — flash crowd), otherwise
// it forwards it again (re-gossip). Crashed nodes cannot publish.
func (nr *NetRun) Publish(id int) { nr.publish(id) }

// NetArena holds the reusable per-run state of network executions. It
// owns one ShardArena — kernels, sharded fabric, failure mask, and every
// shard's receive bitset and target buffer — and a single-kernel run is
// shard 0 of it: the paper's executor at any shard count and the
// simulation front ends that Lease (the protocol baseline runtime) all
// recycle the same kernel and network. One arena serves many runs — the
// scenario sweep workers recycle one arena each — and after the first run
// at a given shape an execution performs zero O(n)-sized allocations:
// every piece of run state is redrawn in place. An arena is
// single-goroutine state; never share one across workers.
type NetArena struct {
	sharded *ShardArena
}

// Sharded leases the arena's pooled execution state, sized for the given
// shard count — the seam sweep workers recycle runs through without a
// second arena parameter. A nil receiver returns nil
// (ExecuteOnNetworkSharded builds a throwaway arena).
func (a *NetArena) Sharded(shards int) *ShardArena {
	if a == nil {
		return nil
	}
	a.sharded.ensure(shards)
	return a.sharded
}

// NewNetArena returns an empty arena; buffers grow on first use.
func NewNetArena() *NetArena { return &NetArena{sharded: NewShardArena(1)} }

// RunState is the leased per-run state a simulation front end builds an
// execution from: a Reset kernel, a Reset network, the pooled failure mask
// (fill it before use), and the cleared first-receipt bitset. The lease is
// valid until the arena's next Lease or execution.
type RunState struct {
	Kernel   *sim.Kernel
	Net      *simnet.Network
	Mask     *failure.Mask
	Received *bitset.Bits
}

// Lease resets shard 0 of the arena for a fresh n-node single-kernel run
// over netCfg and hands it out. It is the seam non-core executors (the
// protocol baseline runtime) recycle run state through; this package's
// own executor leases the same shard, so both kinds of run share one
// arena without interference. Results are byte-identical whether the
// arena is fresh or recycled.
func (a *NetArena) Lease(n int, netCfg simnet.Config, netRNG *xrand.RNG) RunState {
	run := a.sharded.LeaseSharded(1, n, netCfg)
	k := run.Kernels[0]
	k.Reset()
	run.Net.ResetShard(0, k, netRNG)
	st := &a.sharded.states[0]
	st.received.Reset(n)
	return RunState{Kernel: k, Net: run.Net.Shard(0), Mask: run.Mask, Received: &st.received}
}

// Targets leases the arena's pooled target-sampling buffer; pair with
// SetTargets to return the (possibly grown) buffer when the run finishes.
func (a *NetArena) Targets() []int { return a.sharded.states[0].targets }

// SetTargets returns the sampling buffer leased with Targets.
func (a *NetArena) SetTargets(t []int) { a.sharded.states[0].targets = t }

// ExecuteOnNetwork runs one execution of the general gossiping algorithm
// on one kernel with a throwaway arena (see ExecuteOnNetworkSharded).
// With zero latency and no loss the set of members reached is distributed
// identically to ExecuteOnce (an integration test asserts this); with
// loss or partitions, the network becomes an additional failure source
// beyond the paper's model.
func ExecuteOnNetwork(p Params, netCfg simnet.Config, r *xrand.RNG) (NetResult, error) {
	return ExecuteOnNetworkArena(p, netCfg, r, nil, nil)
}

// ExecuteOnNetworkArena is ExecuteOnNetworkSharded on one shard of arena
// (nil for a throwaway one), with a fault-injection hook (may be nil).
func ExecuteOnNetworkArena(p Params, netCfg simnet.Config, r *xrand.RNG, inject func(*NetRun), arena *NetArena) (NetResult, error) {
	return ExecuteOnNetworkSharded(p, netCfg, r, inject, arena.Sharded(1), nil, ShardOptions{Shards: 1})
}
