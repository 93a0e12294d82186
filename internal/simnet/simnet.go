package simnet

import (
	"fmt"
	"math"
	"time"

	"gossipkit/internal/bitset"
	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// NodeID identifies a node in the network, 0..N-1.
type NodeID int

// Message is a network datagram. Tag is a small protocol-defined message
// kind (0 for plain Send); multi-message-type protocols — the baseline
// runtime's gossip pushes, digests, NACKs, and pull replies — dispatch on
// it without boxing a payload (see SendTag).
type Message struct {
	From    NodeID
	To      NodeID
	Tag     int32
	Payload any
}

// Handler consumes a delivered message at simulated time now.
type Handler func(now sim.Time, msg Message)

// LatencyModel draws the one-way delay for a message.
type LatencyModel interface {
	Latency(r *xrand.RNG, from, to NodeID) time.Duration
}

// LatencyBounder is optionally implemented by latency models whose draws
// never exceed a known bound. A network whose model reports a positive
// bound switches the kernel's event queue to the calendar discipline sized
// for that band (sim.Kernel.SetBoundedDelayHint) — the scale lever that
// makes n=10⁷ executions practical. The bound is a performance hint only:
// exceeding it (e.g. after a mid-run SetLatency swap to a heavier model)
// costs throughput, never correctness.
type LatencyBounder interface {
	// LatencyBound returns the maximum delay the model can draw, and
	// whether such a bound exists.
	LatencyBound() (time.Duration, bool)
}

// LatencyFloorer is optionally implemented by latency models whose draws
// never fall below a known minimum. A positive floor is the lookahead
// window of the conservative-PDES sharded runtime: events less than the
// floor apart on different shards cannot influence each other, so shard
// kernels may advance that far in parallel. Models without a positive
// floor keep executions on the single kernel (the sharded runtime falls
// back rather than guessing).
type LatencyFloorer interface {
	// LatencyFloor returns the minimum delay the model can draw, and
	// whether such a floor exists.
	LatencyFloor() (time.Duration, bool)
}

// LossModel decides whether a message is dropped in transit.
type LossModel interface {
	Drop(r *xrand.RNG, from, to NodeID) bool
}

// LossCloner is optionally implemented by loss models carrying mutable
// state (e.g. *GilbertElliott's burst state). The sharded fabric clones
// such a model per shard so concurrent draws neither race nor entangle
// the shards' RNG-independent streams; stateless models are shared.
type LossCloner interface {
	// CloneLoss returns an independent copy starting from the model's
	// current state.
	CloneLoss() LossModel
}

// ---------------------------------------------------------------------------
// Latency models

// ConstantLatency delays every message by D.
type ConstantLatency struct{ D time.Duration }

// Latency implements LatencyModel.
func (c ConstantLatency) Latency(*xrand.RNG, NodeID, NodeID) time.Duration { return c.D }

// LatencyBound implements LatencyBounder.
func (c ConstantLatency) LatencyBound() (time.Duration, bool) { return c.D, true }

// LatencyFloor implements LatencyFloorer.
func (c ConstantLatency) LatencyFloor() (time.Duration, bool) { return c.D, true }

// UniformLatency draws delays uniformly from [Lo, Hi].
type UniformLatency struct{ Lo, Hi time.Duration }

// Latency implements LatencyModel.
func (u UniformLatency) Latency(r *xrand.RNG, _, _ NodeID) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(r.Uint64n(uint64(u.Hi-u.Lo)+1))
}

// LatencyBound implements LatencyBounder.
func (u UniformLatency) LatencyBound() (time.Duration, bool) {
	if u.Hi <= u.Lo {
		return u.Lo, true
	}
	return u.Hi, true
}

// LatencyFloor implements LatencyFloorer.
func (u UniformLatency) LatencyFloor() (time.Duration, bool) { return u.Lo, true }

// ExponentialLatency draws delays from Exp(mean) shifted by Floor, a common
// WAN model (propagation floor plus queueing tail).
type ExponentialLatency struct {
	Floor time.Duration
	Mean  time.Duration // mean of the exponential part
}

// Latency implements LatencyModel.
func (e ExponentialLatency) Latency(r *xrand.RNG, _, _ NodeID) time.Duration {
	return e.Floor + time.Duration(r.ExpFloat64()*float64(e.Mean))
}

// LatencyFloor implements LatencyFloorer.
func (e ExponentialLatency) LatencyFloor() (time.Duration, bool) { return e.Floor, true }

// ---------------------------------------------------------------------------
// Loss models

// NoLoss never drops messages.
type NoLoss struct{}

// Drop implements LossModel.
func (NoLoss) Drop(*xrand.RNG, NodeID, NodeID) bool { return false }

// BernoulliLoss drops each message independently with probability P.
type BernoulliLoss struct{ P float64 }

// Drop implements LossModel.
func (b BernoulliLoss) Drop(r *xrand.RNG, _, _ NodeID) bool { return r.Bool(b.P) }

// GilbertElliott is the classic two-state bursty loss model: the channel
// alternates between a Good state (loss PGood) and a Bad state (loss PBad),
// with transition probabilities PG2B and PB2G evaluated per message.
// State is tracked globally (one channel), matching its use as a shared-
// medium burst model; per-link burst state can be composed externally.
type GilbertElliott struct {
	PG2B, PB2G  float64
	PGood, PBad float64
	bad         bool
}

// NewGilbertElliott returns a Gilbert–Elliott model starting in Good state.
func NewGilbertElliott(pG2B, pB2G, pGood, pBad float64) *GilbertElliott {
	for _, p := range []float64{pG2B, pB2G, pGood, pBad} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("simnet: probability %g outside [0,1]", p))
		}
	}
	return &GilbertElliott{PG2B: pG2B, PB2G: pB2G, PGood: pGood, PBad: pBad}
}

// CloneLoss implements LossCloner: the copy starts from g's current
// channel state and evolves independently.
func (g *GilbertElliott) CloneLoss() LossModel {
	c := *g
	return &c
}

// Drop implements LossModel.
func (g *GilbertElliott) Drop(r *xrand.RNG, _, _ NodeID) bool {
	if g.bad {
		if r.Bool(g.PB2G) {
			g.bad = false
		}
	} else if r.Bool(g.PG2B) {
		g.bad = true
	}
	if g.bad {
		return r.Bool(g.PBad)
	}
	return r.Bool(g.PGood)
}

// ---------------------------------------------------------------------------
// Network

// Stats counts network-level outcomes.
type Stats struct {
	Sent         int64 // Send calls accepted from live nodes
	Delivered    int64 // messages handed to a handler
	DroppedLoss  int64 // lost in transit
	DroppedCrash int64 // destination was crashed (or had no handler) at delivery
	DroppedDown  int64 // discarded at send time: the sender was down (never in Sent)
	DroppedPart  int64 // blocked by a partition
	// BoxedSends counts payload-free messages that fell off the slot-free
	// event-word encoding into a pooled in-flight slot: the tag did not fit
	// below tagLimit, the group was too large to pack (n ≥ 2²⁴), or a full
	// tracer was watching. Boxed sends stay allocation-free in the steady
	// state (slots are recycled) but double the queue's memory traffic, so
	// streaming workloads whose message ids exceed the packed-tag band watch
	// this counter instead of discovering the shift in an alloc profile.
	// It is bookkeeping about Sent messages, not an outcome: boxed sends
	// are already included in Sent and resolve into Delivered or a drop
	// counter like any other.
	BoxedSends int64

	// Batch accounting. A SendBatch call is one wire message — counted once
	// in Sent / Delivered / the drop counters and once in InFlight, exactly
	// like a SendTag — but it carries many id entries, so entry-level
	// conservation (what the streaming ledger reconciles) needs the payload
	// sizes alongside the wire counts. Batches/BatchEntries count accepted
	// batches (subsets of Sent); BatchesDown/BatchEntriesDown send-time
	// discards from down senders (subsets of DroppedDown);
	// BatchesDelivered/BatchEntriesDelivered batches handed to the batch
	// handler (subsets of Delivered). Entries lost in transit are the
	// quiescent difference SentEntries() − DeliveredEntries().
	Batches               int64
	BatchEntries          int64
	BatchesDown           int64
	BatchEntriesDown      int64
	BatchesDelivered      int64
	BatchEntriesDelivered int64
}

// SentEntries returns accepted sends in id-entry units: every non-batch
// message counts 1 and every batch counts its id-slab length. This is the
// send-side term of the streaming ledger's entry conservation; for runs
// without batches it equals Sent.
func (s Stats) SentEntries() int64 { return s.Sent - s.Batches + s.BatchEntries }

// DeliveredEntries returns deliveries in id-entry units (see SentEntries);
// without batches it equals Delivered.
func (s Stats) DeliveredEntries() int64 {
	return s.Delivered - s.BatchesDelivered + s.BatchEntriesDelivered
}

// DownEntries returns send-time down-sender discards in id-entry units
// (see SentEntries); without batches it equals DroppedDown.
func (s Stats) DownEntries() int64 { return s.DroppedDown - s.BatchesDown + s.BatchEntriesDown }

// InFlight returns the number of accepted messages still in transit: sent
// but neither delivered nor dropped. Round-driven protocols use it to
// distinguish "no progress because the spread died" from "no progress yet
// because messages are still airborne" before declaring quiescence. Every
// term is an outcome of an accepted (Sent-counted) message — send-time
// discards from down senders live in DroppedDown precisely so they cannot
// push this below zero.
func (s Stats) InFlight() int64 {
	return s.Sent - s.Delivered - s.DroppedLoss - s.DroppedCrash - s.DroppedPart
}

// Config parameterizes a Network. Zero values mean: zero latency, no loss.
type Config struct {
	Latency LatencyModel
	Loss    LossModel
	// Tracer, if non-nil, observes every network event synchronously.
	Tracer Tracer
}

// inflight is the pooled payload slot of one message in transit. The
// destination rides in the event record itself (its node word); the slot
// holds the rest. Slots are recycled through a free list, so the
// steady-state send→deliver path allocates nothing. slab is the index of
// an id-slab for batch messages (-1 otherwise), leased at send time and
// released when the batch resolves.
type inflight struct {
	from    NodeID
	sentAt  sim.Time
	tag     int32
	slab    int32
	payload any
}

// Network is a simulated message-passing network over n nodes.
// It must be driven from the kernel's goroutine.
type Network struct {
	kernel    *sim.Kernel
	rng       *xrand.RNG
	n         int
	latency   LatencyModel
	loss      LossModel
	all       Handler   // shared handler for every node (RegisterAll)
	handlers  []Handler // per-node handlers, allocated on first Register
	up        bitset.Bits
	partition func(a, b NodeID) bool
	stats     Stats
	tracer    Tracer
	traceFull bool // tracer needs exact SentAt: disable the slot-free path
	packTags  bool // n < 2²⁴: (tag, from) pairs fit a slot-free event word

	deliverID sim.HandlerID
	inflight  []inflight
	freeMsg   []int32

	// allBatch consumes delivered batches (RegisterBatchAll); slabs is the
	// pooled id-slab store batches park their entry lists in between send
	// and delivery, recycled through freeSlab. A slab is leased only for a
	// batch that actually schedules (send-time drops never touch the pool)
	// and released the moment its batch resolves, so at quiescence
	// SlabsInUse is zero.
	allBatch BatchHandler
	slabs    [][]int32
	freeSlab []int32

	// route, when installed, intercepts payload-free sends whose
	// destination lives on another shard (see SetRoute). The single-kernel
	// hot path pays one nil check for the seam. routeBatch is its SendBatch
	// sibling.
	route      func(from, to NodeID, tag int32, sentAt, at sim.Time) bool
	routeBatch func(from, to NodeID, kind int32, ids []int32, sentAt, at sim.Time) bool
}

// BatchHandler consumes a delivered batch message: one wire event carrying
// many message ids of one protocol kind. The ids slice aliases a pooled
// slab that is recycled when the handler returns — consume it during the
// call, never retain it.
type BatchHandler func(now sim.Time, from, to NodeID, kind int32, ids []int32)

// New returns a network of n nodes driven by kernel, with randomness from
// rng (latency jitter and loss draws).
func New(kernel *sim.Kernel, n int, rng *xrand.RNG, cfg Config) *Network {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("simnet: node count %d outside [0, 2³¹)", n))
	}
	if kernel == nil || rng == nil {
		panic("simnet: nil kernel or rng")
	}
	nw := &Network{}
	nw.Reset(kernel, n, rng, cfg)
	return nw
}

// Reset reinitializes the network in place for a fresh run: all nodes up,
// counters zeroed, handlers and partition cleared, models taken from cfg.
// Pooled buffers (up flags, payload slots) are retained when the node count
// allows, so a run-scoped arena can recycle one network across many
// executions. The kernel must be freshly created or Reset: the network
// registers its delivery handler on it.
func (nw *Network) Reset(kernel *sim.Kernel, n int, rng *xrand.RNG, cfg Config) {
	nw.reset(kernel, n, n, rng, cfg)
}

// reset is Reset with the kernel's pending-events hint given separately:
// a shard's network addresses all n members but queues events for its own
// block only.
func (nw *Network) reset(kernel *sim.Kernel, n, pending int, rng *xrand.RNG, cfg Config) {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("simnet: node count %d outside [0, 2³¹)", n))
	}
	if kernel == nil || rng == nil {
		panic("simnet: nil kernel or rng")
	}
	nw.kernel = kernel
	nw.rng = rng
	nw.n = n
	nw.latency = cfg.Latency
	nw.loss = cfg.Loss
	nw.all = nil
	nw.allBatch = nil
	nw.handlers = nil
	nw.partition = nil
	nw.stats = Stats{}
	nw.tracer = cfg.Tracer
	nw.traceFull = cfg.Tracer != nil
	nw.route = nil
	nw.routeBatch = nil
	if nw.latency == nil {
		nw.latency = ConstantLatency{}
	}
	if nw.loss == nil {
		nw.loss = NoLoss{}
	}
	nw.packTags = n < 1<<tagShift
	nw.up.Reset(n)
	nw.up.SetAll()
	for i := range nw.inflight {
		nw.inflight[i] = inflight{}
	}
	nw.inflight = nw.inflight[:0]
	nw.freeMsg = nw.freeMsg[:0]
	nw.freeSlab = nw.freeSlab[:0]
	for i := range nw.slabs {
		nw.slabs[i] = nw.slabs[i][:0]
		nw.freeSlab = append(nw.freeSlab, int32(i))
	}
	nw.deliverID = kernel.RegisterHandler(nw.deliverEvent)
	// A bounded latency band selects the kernel's calendar queue; anything
	// unbounded (or zero) keeps the heap. The pending estimate is the
	// member count the kernel serves (peak in-flight messages run at about
	// 0.28 per member at n=10⁶). It only sizes small rings: past the
	// calendar's cache budget the ring stops growing and its buckets get
	// coarser instead.
	if b, ok := nw.latency.(LatencyBounder); ok {
		if d, ok := b.LatencyBound(); ok && d > 0 {
			kernel.SetBoundedDelayHint(d, pending)
		}
	}
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.n }

// Kernel returns the driving kernel.
func (nw *Network) Kernel() *sim.Kernel { return nw.kernel }

// Register installs the message handler for id, replacing any previous
// one. After RegisterAll, registering a single node materializes the
// per-node table (every other node keeps the shared handler) so the
// override actually takes effect.
func (nw *Network) Register(id NodeID, h Handler) {
	nw.checkID(id)
	if nw.handlers == nil {
		nw.handlers = make([]Handler, nw.n)
		if nw.all != nil {
			for i := range nw.handlers {
				nw.handlers[i] = nw.all
			}
			nw.all = nil
		}
	}
	nw.handlers[id] = h
}

// RegisterAll installs one handler shared by every node (the delivered
// Message's To field says which node received). It replaces any per-node
// handlers and avoids materializing n per-node closures, which matters at
// n=10⁵..10⁶.
func (nw *Network) RegisterAll(h Handler) {
	nw.all = h
	nw.handlers = nil
}

// RegisterBatchAll installs the handler consuming delivered batches
// (SendBatch wire messages) at every node. Batch delivery is a separate
// dispatch from Message delivery on purpose: the common case registers
// both once per run, and a network without a batch handler drops arriving
// batches as unprocessable (counted DroppedCrash, like a missing Handler).
func (nw *Network) RegisterBatchAll(h BatchHandler) {
	nw.allBatch = h
}

// tagShift positions a message tag above the 24-bit sender id in the
// slot-free event-word encoding: with n < 2²⁴ (well past the n=10⁷
// ceiling), a payload-free tagged message packs (tag, from) into one int32
// and needs no in-flight slot. Tags must stay below tagLimit for the
// packed form; larger tags (or larger networks) fall back to a pooled slot
// transparently.
const (
	tagShift = 24
	tagLimit = 1 << (31 - tagShift) // 7 tag bits keep the word positive
)

// Send queues a message for delivery after the modeled latency. Messages
// from crashed nodes are silently discarded; messages to nodes that are
// crashed at delivery time are dropped (fail-stop: a crashed node never
// processes anything).
func (nw *Network) Send(from, to NodeID, payload any) {
	nw.send(from, to, 0, payload)
}

// SendTag queues a payload-free message carrying a small protocol message
// kind, delivered as Message.Tag. Protocols with several message types
// (data push, digest, NACK, pull reply) stay on the slot-free zero-
// allocation path this way instead of boxing a payload per message.
//
// The slot-free encoding holds only while the (tag, from) pair fits the
// event word: tag < tagLimit (128) and n < 2²⁴. Outside that band — tags
// used as streaming message ids easily exceed it — the message transparently
// parks in a pooled in-flight slot instead: same delivery semantics, same
// zero steady-state allocations, but an extra 24 bytes of queue state per
// airborne message. Stats.BoxedSends counts exactly these fallbacks so the
// shift is observable rather than silent.
func (nw *Network) SendTag(from, to NodeID, tag int32) {
	if tag < 0 {
		panic(fmt.Sprintf("simnet: negative message tag %d", tag))
	}
	nw.send(from, to, tag, nil)
}

func (nw *Network) send(from, to NodeID, tag int32, payload any) {
	nw.checkID(from)
	nw.checkID(to)
	now := nw.kernel.Now()
	if !nw.up.Get(int(from)) {
		nw.stats.DroppedDown++
		nw.trace(Event{Kind: EventDroppedDown, From: from, To: to, At: now, SentAt: now})
		return
	}
	nw.stats.Sent++
	nw.trace(Event{Kind: EventSent, From: from, To: to, At: now, SentAt: now})
	if nw.partition != nil && nw.partition(from, to) {
		nw.stats.DroppedPart++
		nw.trace(Event{Kind: EventDroppedPartition, From: from, To: to, At: now, SentAt: now})
		return
	}
	if nw.loss.Drop(nw.rng, from, to) {
		nw.stats.DroppedLoss++
		nw.trace(Event{Kind: EventDroppedLoss, From: from, To: to, At: now, SentAt: now})
		return
	}
	d := nw.latency.Latency(nw.rng, from, to)
	if d < 0 {
		d = 0
	}
	// A routed (cross-shard) destination: all send-time concerns — sender
	// liveness, Sent count, partition and loss draws, the latency draw —
	// have already been decided here with this shard's RNG; the hook takes
	// over delivery scheduling on the owning shard. Only payload-free
	// messages route (the sharded fabric carries no payloads).
	if nw.route != nil && payload == nil && nw.route(from, to, tag, now, now.Add(d)) {
		return
	}
	// Payload-free messages with no full tracer watching — the entire
	// gossip hot path, including runs observed through a lite tracer —
	// need no in-flight slot: the sender id (and, when the group is small
	// enough to pack, the tag) rides in the event record's payload word
	// (encoded below zero), halving peak queue memory at n=10⁷.
	// Everything else parks (from, sentAt, tag, payload) in a pooled
	// slot.
	if payload == nil && !nw.traceFull && (tag == 0 || (nw.packTags && tag < tagLimit)) {
		nw.kernel.ScheduleAfter(d, nw.deliverID, int32(to), -(int32(from)|tag<<tagShift)-1)
		return
	}
	if payload == nil {
		nw.stats.BoxedSends++
	}
	slot := nw.allocMsg(from, now, tag, payload)
	nw.kernel.ScheduleAfter(d, nw.deliverID, int32(to), slot)
}

// SendBatch queues one wire message carrying every id in ids as a batch of
// protocol kind `kind` — the digest/NACK-set/repair-batch primitive that
// lets a round's gossip cost O(fanout) kernel events instead of O(buffer).
// The batch is one message to the network: one latency and one loss draw,
// one Sent/Delivered/drop count, one traced event — while the entry
// counters (Stats.BatchEntries and friends) carry the id payload sizes so
// entry-level conservation stays exact. The ids slice is copied into a
// pooled slab at send time and the slab is recycled when the batch
// resolves, so callers may reuse their scratch immediately and the steady
// state allocates nothing. An empty ids is a no-op.
func (nw *Network) SendBatch(from, to NodeID, kind int32, ids []int32) {
	if kind < 0 {
		panic(fmt.Sprintf("simnet: negative batch kind %d", kind))
	}
	if len(ids) == 0 {
		return
	}
	nw.checkID(from)
	nw.checkID(to)
	now := nw.kernel.Now()
	k := int64(len(ids))
	if !nw.up.Get(int(from)) {
		nw.stats.DroppedDown++
		nw.stats.BatchesDown++
		nw.stats.BatchEntriesDown += k
		nw.trace(Event{Kind: EventDroppedDown, From: from, To: to, At: now, SentAt: now, Entries: int32(k)})
		return
	}
	nw.stats.Sent++
	nw.stats.Batches++
	nw.stats.BatchEntries += k
	nw.trace(Event{Kind: EventSent, From: from, To: to, At: now, SentAt: now, Entries: int32(k)})
	if nw.partition != nil && nw.partition(from, to) {
		nw.stats.DroppedPart++
		nw.trace(Event{Kind: EventDroppedPartition, From: from, To: to, At: now, SentAt: now, Entries: int32(k)})
		return
	}
	if nw.loss.Drop(nw.rng, from, to) {
		nw.stats.DroppedLoss++
		nw.trace(Event{Kind: EventDroppedLoss, From: from, To: to, At: now, SentAt: now, Entries: int32(k)})
		return
	}
	d := nw.latency.Latency(nw.rng, from, to)
	if d < 0 {
		d = 0
	}
	// Cross-shard batches hand off exactly like cross-shard singles: every
	// send-time decision is already made with this shard's RNG, and the
	// hook copies the ids before returning (no slab is leased here).
	if nw.routeBatch != nil && nw.routeBatch(from, to, kind, ids, now, now.Add(d)) {
		return
	}
	slot := nw.allocBatch(from, now, kind, ids)
	nw.kernel.ScheduleAfter(d, nw.deliverID, int32(to), slot)
}

// SetRoute installs (or clears, with nil) the cross-shard routing hook:
// send consults it after every send-time decision (liveness, Sent count,
// partition, loss, latency draw) for payload-free messages, passing the
// send time and the drawn delivery time; returning true means the hook
// accepted the message for delivery on another shard and this network
// schedules nothing. Install only on sharded fabrics — the hot path cost
// when unset is a single nil check.
func (nw *Network) SetRoute(route func(from, to NodeID, tag int32, sentAt, at sim.Time) bool) {
	nw.route = route
}

// SetRouteBatch installs (or clears, with nil) the cross-shard routing
// hook for batches, the SendBatch counterpart of SetRoute. The hook must
// copy ids before returning: the slice is the caller's scratch, not a
// leased slab.
func (nw *Network) SetRouteBatch(route func(from, to NodeID, kind int32, ids []int32, sentAt, at sim.Time) bool) {
	nw.routeBatch = route
}

// ScheduleArrival schedules delivery of a payload-free message on this
// network's kernel at absolute time at — the entry the sharded fabric
// hands cross-shard messages to their destination shard through at window
// barriers. Send-time accounting (Sent count, loss/partition draws, send
// trace) already happened on the sender's shard; delivery-time outcomes
// (destination crash, delivery-time partition, handler dispatch) are
// decided here as for any local message. Arrivals before the kernel's
// current time are clamped to it.
func (nw *Network) ScheduleArrival(from, to NodeID, tag int32, sentAt, at sim.Time) {
	nw.checkID(from)
	nw.checkID(to)
	if now := nw.kernel.Now(); at < now {
		at = now
	}
	if !nw.traceFull && (tag == 0 || (nw.packTags && tag < tagLimit)) {
		nw.kernel.Schedule(at, nw.deliverID, int32(to), -(int32(from)|tag<<tagShift)-1)
		return
	}
	// A cross-shard message skipped send()'s packing branch on its source
	// shard (the route hook intercepted it first), so the boxing decision —
	// and the BoxedSends count — happens here on the destination shard.
	nw.stats.BoxedSends++
	slot := nw.allocMsg(from, sentAt, tag, nil)
	nw.kernel.Schedule(at, nw.deliverID, int32(to), slot)
}

// ScheduleArrivalBatch is ScheduleArrival for batches: the destination
// shard leases a local slab for the ids (the source shard's scratch is not
// shared across kernels) and schedules delivery at `at`, clamped to now.
// Send-side accounting — including the batch/entry counters — already
// happened on the source shard.
func (nw *Network) ScheduleArrivalBatch(from, to NodeID, kind int32, ids []int32, sentAt, at sim.Time) {
	nw.checkID(from)
	nw.checkID(to)
	if len(ids) == 0 {
		return
	}
	if now := nw.kernel.Now(); at < now {
		at = now
	}
	slot := nw.allocBatch(from, sentAt, kind, ids)
	nw.kernel.Schedule(at, nw.deliverID, int32(to), slot)
}

// allocMsg parks a message's payload in a pooled slot and returns its index.
func (nw *Network) allocMsg(from NodeID, sentAt sim.Time, tag int32, payload any) int32 {
	if n := len(nw.freeMsg); n > 0 {
		idx := nw.freeMsg[n-1]
		nw.freeMsg = nw.freeMsg[:n-1]
		nw.inflight[idx] = inflight{from: from, sentAt: sentAt, tag: tag, slab: -1, payload: payload}
		return idx
	}
	nw.inflight = append(nw.inflight, inflight{from: from, sentAt: sentAt, tag: tag, slab: -1, payload: payload})
	return int32(len(nw.inflight) - 1)
}

// allocBatch parks a batch in a pooled slot, copying its ids into a leased
// slab, and returns the slot index.
func (nw *Network) allocBatch(from NodeID, sentAt sim.Time, kind int32, ids []int32) int32 {
	var slab int32
	if n := len(nw.freeSlab); n > 0 {
		slab = nw.freeSlab[n-1]
		nw.freeSlab = nw.freeSlab[:n-1]
	} else {
		nw.slabs = append(nw.slabs, nil)
		slab = int32(len(nw.slabs) - 1)
	}
	nw.slabs[slab] = append(nw.slabs[slab][:0], ids...)
	if n := len(nw.freeMsg); n > 0 {
		idx := nw.freeMsg[n-1]
		nw.freeMsg = nw.freeMsg[:n-1]
		nw.inflight[idx] = inflight{from: from, sentAt: sentAt, tag: kind, slab: slab}
		return idx
	}
	nw.inflight = append(nw.inflight, inflight{from: from, sentAt: sentAt, tag: kind, slab: slab})
	return int32(len(nw.inflight) - 1)
}

// releaseSlab returns a resolved batch's slab to the pool.
func (nw *Network) releaseSlab(slab int32) {
	nw.freeSlab = append(nw.freeSlab, slab)
}

// SlabsInUse returns the number of leased id-slabs not yet recycled — the
// pool-leak invariant: zero at quiescence, because every scheduled batch
// releases its slab when it resolves (delivery or any delivery-time drop).
func (nw *Network) SlabsInUse() int {
	return len(nw.slabs) - len(nw.freeSlab)
}

// deliverEvent is the typed kernel handler for message arrival: node is the
// destination; payload is an inflight slot index when >= 0, or the encoded
// (tag, sender) of a slot-free payload-nil message when negative. A message
// sent slot-free before a tracer was installed mid-flight reports SentAt
// equal to its delivery time — the only observable difference between the
// two encodings.
func (nw *Network) deliverEvent(now sim.Time, node, slot int32) {
	var m inflight
	if slot < 0 {
		word := -slot - 1
		if nw.packTags {
			m = inflight{from: NodeID(word & (1<<tagShift - 1)), tag: word >> tagShift, sentAt: now, slab: -1}
		} else {
			m = inflight{from: NodeID(word), sentAt: now, slab: -1}
		}
	} else {
		m = nw.inflight[slot]
		nw.inflight[slot].payload = nil // release the payload reference
		nw.freeMsg = append(nw.freeMsg, slot)
	}
	to := NodeID(node)
	if m.slab >= 0 {
		nw.deliverBatch(now, m, to)
		return
	}
	if !nw.up.Get(int(to)) {
		nw.stats.DroppedCrash++
		nw.trace(Event{Kind: EventDroppedCrash, From: m.from, To: to, At: now, SentAt: m.sentAt})
		return
	}
	// A partition severs in-flight traffic too: a message crossing the
	// boundary when the partition forms never arrives.
	if nw.partition != nil && nw.partition(m.from, to) {
		nw.stats.DroppedPart++
		nw.trace(Event{Kind: EventDroppedPartition, From: m.from, To: to, At: now, SentAt: m.sentAt})
		return
	}
	h := nw.all
	if h == nil && nw.handlers != nil {
		h = nw.handlers[to]
	}
	if h == nil {
		nw.stats.DroppedCrash++
		nw.trace(Event{Kind: EventDroppedCrash, From: m.from, To: to, At: now, SentAt: m.sentAt})
		return
	}
	nw.stats.Delivered++
	nw.trace(Event{Kind: EventDelivered, From: m.from, To: to, At: now, SentAt: m.sentAt})
	h(now, Message{From: m.from, To: to, Tag: m.tag, Payload: m.payload})
}

// deliverBatch resolves an arriving batch: the delivery-time outcomes
// mirror deliverEvent's (crash, partition, missing handler), and the slab
// is recycled on every path — after the handler returns on delivery, so
// the handler may issue fresh batches while iterating the ids.
func (nw *Network) deliverBatch(now sim.Time, m inflight, to NodeID) {
	ids := nw.slabs[m.slab]
	k := int32(len(ids))
	if !nw.up.Get(int(to)) {
		nw.stats.DroppedCrash++
		nw.trace(Event{Kind: EventDroppedCrash, From: m.from, To: to, At: now, SentAt: m.sentAt, Entries: k})
		nw.releaseSlab(m.slab)
		return
	}
	if nw.partition != nil && nw.partition(m.from, to) {
		nw.stats.DroppedPart++
		nw.trace(Event{Kind: EventDroppedPartition, From: m.from, To: to, At: now, SentAt: m.sentAt, Entries: k})
		nw.releaseSlab(m.slab)
		return
	}
	if nw.allBatch == nil {
		nw.stats.DroppedCrash++
		nw.trace(Event{Kind: EventDroppedCrash, From: m.from, To: to, At: now, SentAt: m.sentAt, Entries: k})
		nw.releaseSlab(m.slab)
		return
	}
	nw.stats.Delivered++
	nw.stats.BatchesDelivered++
	nw.stats.BatchEntriesDelivered += int64(k)
	nw.trace(Event{Kind: EventDelivered, From: m.from, To: to, At: now, SentAt: m.sentAt, Entries: k})
	nw.allBatch(now, m.from, to, m.tag, ids)
	nw.releaseSlab(m.slab)
}

// Crash marks id as failed: in-flight messages to it will be dropped at
// delivery time and its sends are discarded (fail-stop crash).
func (nw *Network) Crash(id NodeID) {
	nw.checkID(id)
	nw.up.Unset(int(id))
}

// Restart marks id as up again. (The paper's model is crash-stop; Restart
// exists for the membership and failure-detector examples.)
func (nw *Network) Restart(id NodeID) {
	nw.checkID(id)
	nw.up.Set(int(id))
}

// Up reports whether id is currently up.
func (nw *Network) Up(id NodeID) bool {
	nw.checkID(id)
	return nw.up.Get(int(id))
}

// SetPartition installs a predicate blocking communication from a to b when
// it returns true. nil clears the partition.
func (nw *Network) SetPartition(blocked func(a, b NodeID) bool) {
	nw.partition = blocked
}

// SetLoss swaps the loss model mid-run; nil restores no loss. In-flight
// messages already past their loss draw are unaffected, so a loss episode
// applies exactly to the sends issued while it is installed.
func (nw *Network) SetLoss(l LossModel) {
	if l == nil {
		l = NoLoss{}
	}
	nw.loss = l
}

// SetLatency swaps the latency model mid-run; nil restores zero latency.
// Messages already in flight keep their original delivery times.
func (nw *Network) SetLatency(l LatencyModel) {
	if l == nil {
		l = ConstantLatency{}
	}
	nw.latency = l
}

// Fabric is the network-control surface shared by a single *Network and
// the sharded fabric (*ShardedNet): everything fault-injection hooks and
// executors drive mid-run — liveness, partitions, model swaps, counter
// snapshots — without caring how many kernels carry the traffic. All
// methods must be called with the execution quiescent or parked at a
// window barrier (the kernel goroutine for a single network, the control
// context for a sharded one).
type Fabric interface {
	N() int
	Up(id NodeID) bool
	Crash(id NodeID)
	Restart(id NodeID)
	SetPartition(blocked func(a, b NodeID) bool)
	SetLoss(l LossModel)
	SetLatency(l LatencyModel)
	Stats() Stats
	Drained() bool
}

// SplitPartition partitions the nodes into two sides by a membership
// predicate; messages crossing sides are blocked in both directions.
func SplitPartition(inLeft func(NodeID) bool) func(a, b NodeID) bool {
	return func(a, b NodeID) bool { return inLeft(a) != inLeft(b) }
}

// Stats returns a snapshot of the network counters. While the kernel
// still has deliveries pending, the snapshot is a moment-in-time partial
// attribution: Sent counts messages whose delivery-or-drop outcome is not
// yet decided, so InFlight is positive and the drop counters can still
// grow. Final attribution — the state reconciliation tests and the
// scenario summaries rely on — requires quiescence: either the kernel has
// drained (RunAll returned) or Drained reports true.
func (nw *Network) Stats() Stats { return nw.stats }

// Drained reports whether the network is quiescent: every accepted
// message has been delivered or dropped, so Stats is a final attribution
// and InFlight is zero. Mid-run watchers (the scenario stall trigger)
// use it to distinguish "the spread died" from "messages still airborne";
// note it says nothing about pending non-message kernel events.
func (nw *Network) Drained() bool { return nw.stats.InFlight() == 0 }

func (nw *Network) checkID(id NodeID) {
	if id < 0 || int(id) >= nw.n {
		panic(fmt.Sprintf("simnet: node id %d out of range [0,%d)", id, nw.n))
	}
}
