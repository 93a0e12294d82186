package main

import (
	"time"

	"gossipkit/internal/bitset"
	"gossipkit/internal/core"
	"gossipkit/internal/dist"
	"gossipkit/internal/membership"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// The layer probes drive one module's public functions in isolation at
// the shape a traced execution recorded, and return the cost of one
// operation. They price the module counters: a module's share of an
// execution is its count times its probe cost.

// table is the size of the precomputed random operand tables, so operand
// generation stays out of the timed loops.
const table = 1 << 16

// probeKernel times sim.Kernel Schedule+Step in the hold model: depth
// events stay queued, each firing schedules one successor at a delay drawn
// from [lo, hi], until ops events have fired. The kernel gets the calendar
// hint simnet gives it for a bounded latency band over n members.
func probeKernel(tr *tracer, depth, n, ops int, lo, hi time.Duration, seed uint64) float64 {
	sp := tr.begin("probe.sim.Kernel", 0)
	defer tr.end(sp)
	r := xrand.New(seed ^ 0x51)
	delays := make([]time.Duration, table)
	for i := range delays {
		delays[i] = lo + time.Duration(r.Uint64n(uint64(hi-lo)+1))
	}
	k := sim.New()
	return warm(func() float64 {
		k.Reset()
		k.SetBoundedDelayHint(hi, n)
		left, j := ops, 0
		var h sim.HandlerID
		h = k.RegisterHandler(func(now sim.Time, node, payload int32) {
			if left > 0 {
				left--
				k.Schedule(now.Add(delays[j&(table-1)]), h, node, payload)
				j++
			}
		})
		for i := 0; i < max(depth, 1); i++ {
			k.Schedule(sim.Time(delays[i&(table-1)]), h, int32(i), 0)
		}
		return perEvent(k)
	})
}

// warm runs a probe once untimed, to grow the module's buffers as the
// workload's warm-up execution does, then returns the median of three
// readings.
func warm(probe func() float64) float64 {
	probe()
	return median([]float64{probe(), probe(), probe()})
}

// perEvent drains k and returns the nanoseconds per fired event.
func perEvent(k *sim.Kernel) float64 {
	start := time.Now()
	if err := k.RunAll(); err != nil {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(k.Fired())
}

// probeSendTag times one simnet.Network.SendTag plus its delivery,
// kernel included, in the hold model: every delivery sends one message
// to a random member over netCfg. The caller subtracts the kernel probe.
func probeSendTag(tr *tracer, n, depth, ops int, netCfg simnet.Config, seed uint64) float64 {
	sp := tr.begin("probe.simnet.SendTag", 0)
	defer tr.end(sp)
	r := xrand.New(seed ^ 0x52)
	to := randomIDs(r, n)
	k := sim.New()
	nw := simnet.New(k, n, r.Split(1), netCfg)
	return warm(func() float64 {
		k.Reset()
		nw.Reset(k, n, r.Split(1), netCfg)
		left, j := ops, 0
		nw.RegisterAll(func(now sim.Time, msg simnet.Message) {
			if left > 0 {
				left--
				nw.SendTag(msg.To, to[j&(table-1)], 0)
				j++
			}
		})
		for i := 0; i < max(depth, 1); i++ {
			nw.SendTag(to[(i+1)&(table-1)], to[i&(table-1)], 0)
		}
		return perEvent(k)
	})
}

// probeSendBatch is probeSendTag for simnet.Network.SendBatch carrying
// entries ids per batch.
func probeSendBatch(tr *tracer, n, depth, ops, entries int, netCfg simnet.Config, seed uint64) float64 {
	sp := tr.begin("probe.simnet.SendBatch", 0)
	defer tr.end(sp)
	r := xrand.New(seed ^ 0x53)
	to := randomIDs(r, n)
	ids := make([]int32, max(entries, 1))
	for i := range ids {
		ids[i] = int32(i)
	}
	k := sim.New()
	nw := simnet.New(k, n, r.Split(1), netCfg)
	return warm(func() float64 {
		k.Reset()
		nw.Reset(k, n, r.Split(1), netCfg)
		left, j := ops, 0
		nw.RegisterBatchAll(func(now sim.Time, from, dst simnet.NodeID, kind int32, got []int32) {
			if left > 0 {
				left--
				nw.SendBatch(dst, to[j&(table-1)], kind, got)
				j++
			}
		})
		for i := 0; i < max(depth, 1); i++ {
			nw.SendBatch(to[(i+1)&(table-1)], to[i&(table-1)], 1, ids)
		}
		return perEvent(k)
	})
}

func randomIDs(r *xrand.RNG, n int) []simnet.NodeID {
	ids := make([]simnet.NodeID, table)
	for i := range ids {
		ids[i] = simnet.NodeID(r.Intn(n))
	}
	return ids
}

// probeBitset times bitset.Bits Get and Set at random members of an
// n-member set, the receipt-bit traffic of one execution.
func probeBitset(tr *tracer, n, ops int, seed uint64) float64 {
	sp := tr.begin("probe.bitset.Bits", 0)
	defer tr.end(sp)
	r := xrand.New(seed ^ 0x54)
	idx := make([]int, table)
	for i := range idx {
		idx[i] = r.Intn(n)
	}
	var b bitset.Bits
	return warm(func() float64 {
		b.Reset(n)
		hits := 0
		start := time.Now()
		for i := 0; i < ops; i++ {
			id := idx[i&(table-1)]
			if b.Get(id) {
				hits++
			} else {
				b.Set(id)
			}
		}
		el := time.Since(start)
		sink += hits
		return float64(el.Nanoseconds()) / float64(ops)
	})
}

// probeForward times one forwarding decision of the paper's algorithm: a
// fanout draw (dist.Distribution.Sample) plus target selection
// (membership.View.SampleTargets) over the full view of n members.
func probeForward(tr *tracer, n int, fanout dist.Distribution, ops int, seed uint64) float64 {
	sp := tr.begin("probe.xrand.forward", 0)
	defer tr.end(sp)
	r := xrand.New(seed ^ 0x55)
	view := membership.NewFullView(n)
	targets := make([]int, 0, 64)
	return warm(func() float64 {
		total := 0
		start := time.Now()
		for i := 0; i < ops; i++ {
			targets = view.SampleTargets(targets, i%n, fanout.Sample(r), r)
			total += len(targets)
		}
		el := time.Since(start)
		sink += total
		return float64(el.Nanoseconds()) / float64(ops)
	})
}

// probeMessageBits times core.MessageBits.Get at random (message, member)
// cells of a msgs × width matrix, half of whose cells are set.
func probeMessageBits(tr *tracer, msgs, width, ops int, seed uint64) float64 {
	sp := tr.begin("probe.core.MessageBits", 0)
	defer tr.end(sp)
	r := xrand.New(seed ^ 0x56)
	msgs, width = max(msgs, 1), max(width, 1)
	var b core.MessageBits
	b.Reset(msgs, width)
	cells := make([][2]int, table)
	for i := range cells {
		cells[i] = [2]int{r.Intn(msgs), r.Intn(width)}
		if i%2 == 0 {
			b.Set(cells[i][0], cells[i][1])
		}
	}
	return warm(func() float64 {
		hits := 0
		start := time.Now()
		for i := 0; i < ops; i++ {
			c := cells[i&(table-1)]
			if b.Get(c[0], c[1]) {
				hits++
			}
		}
		el := time.Since(start)
		sink += hits
		return float64(el.Nanoseconds()) / float64(ops)
	})
}

// probePartialViews returns the seconds one membership.NewPartialViews
// build of n members with c extra copies takes (median of several).
func probePartialViews(tr *tracer, n, c int, seed uint64) float64 {
	sp := tr.begin("probe.membership.NewPartialViews", 0)
	defer tr.end(sp)
	r := xrand.New(seed ^ 0x57)
	var builds []float64
	for i := 0; i < 15; i++ {
		start := time.Now()
		pv := membership.NewPartialViews(n, c, r)
		builds = append(builds, time.Since(start).Seconds())
		sink += pv.N()
	}
	return median(builds)
}

// probeOps caps a probe's operation count: enough for a steady figure,
// few enough to keep the traced run short.
func probeOps(recorded int) int { return max(min(recorded, 2_000_000), 10_000) }

// sink keeps probe loops from being optimized away.
var sink int
