package core

import (
	"fmt"

	"gossipkit/internal/obs"
	"gossipkit/internal/sim"
	"gossipkit/internal/simnet"
	"gossipkit/internal/xrand"
)

// oracleExecuteOnNetwork is the single-kernel execution body the
// production executor replaced: ExecuteOnNetworkSharded at shards=1 must
// match it byte for byte, results and telemetry alike. It leases its run
// state through NetArena.Lease (shard 0 of the arena), drives one kernel
// to quiescence, and never touches the window machinery.
func oracleExecuteOnNetwork(p Params, netCfg simnet.Config, r *xrand.RNG, inject func(*NetRun), arena *NetArena, probe *obs.Probe) (NetResult, error) {
	if err := p.Validate(); err != nil {
		return NetResult{}, err
	}
	if arena == nil {
		arena = NewNetArena()
	}
	st := arena.Lease(p.N, netCfg, r.Split(0xfeed))
	kernel, nw, mask, received := st.Kernel, st.Net, st.Mask, st.Received
	kernel.SetBudget(uint64(p.N) * 10000)
	p.drawMaskInto(mask, r)
	view := p.view()

	res := NetResult{Result: Result{AliveCount: mask.AliveCount()}}
	targets := arena.Targets()
	defer func() { arena.SetTargets(targets) }()
	probe.Attach(nw, p.N, &res.Delivered)

	forward := func(self int) {
		f := p.Fanout.Sample(r)
		targets = view.SampleTargets(targets, self, f, r)
		res.MessagesSent += len(targets)
		probe.ObserveFanout(len(targets))
		for _, v := range targets {
			if !mask.Alive(v) {
				res.WastedOnFailed++
			}
			nw.Send(simnet.NodeID(self), simnet.NodeID(v), nil)
		}
	}

	// from is the forwarding member, or -1 for an out-of-band receipt (an
	// additional publisher injected by a campaign).
	receive := func(id, from int, now sim.Time) {
		received.Set(id)
		res.Delivered++
		res.DeliveryLatency.Add(now.Seconds())
		if d := now.Duration(); d > res.SpreadTime {
			res.SpreadTime = d
		}
		probe.ObserveFirstReceipt(id, from, now)
		forward(id)
	}

	// One shared handler for every member (index dispatch on msg.To)
	// instead of n per-member closures; fail-stop members are crashed at
	// the network layer, so the handler only ever sees alive-at-delivery
	// members. (Crashing also counts the paper's "wasted" sends as crash
	// drops.)
	nw.RegisterAll(func(now sim.Time, msg simnet.Message) {
		id := int(msg.To)
		if received.Get(id) {
			res.Duplicates++
			return
		}
		receive(id, int(msg.From), now)
	})
	for id := 0; id < p.N; id++ {
		if !mask.Alive(id) {
			nw.Crash(simnet.NodeID(id))
		}
	}

	if inject != nil {
		inject(&NetRun{
			Kernel:      kernel,
			Net:         nw,
			View:        view,
			mask:        mask,
			hasReceived: received.Get,
			delivered:   func() int { return res.Delivered },
			publish: func(id int) {
				if id < 0 || id >= p.N || !nw.Up(simnet.NodeID(id)) || !mask.Alive(id) {
					return
				}
				if received.Get(id) {
					forward(id) // re-gossip
					return
				}
				receive(id, -1, kernel.Now()) // additional publisher
			},
		})
	}

	// The source initiates at t=0 (unless an injection hook already
	// published from it directly).
	if !received.Get(p.Source) {
		received.Set(p.Source)
		res.Delivered++
		probe.ObserveSeed(p.Source)
		forward(p.Source)
	}
	if err := kernel.RunAll(); err != nil {
		return NetResult{}, fmt.Errorf("core: network execution aborted: %w", err)
	}
	probe.Finish(kernel.Now())
	if res.AliveCount > 0 {
		res.Reliability = float64(res.Delivered) / float64(res.AliveCount)
	}
	for id := 0; id < p.N; id++ {
		if nw.Up(simnet.NodeID(id)) {
			res.UpAtEnd++
			if received.Get(id) {
				res.DeliveredUp++
			}
		}
	}
	if res.UpAtEnd > 0 {
		res.SurvivorReliability = float64(res.DeliveredUp) / float64(res.UpAtEnd)
	}
	res.Net = nw.Stats()
	return res, nil
}
