package protocols

import (
	"gossipkit/internal/failure"
	"gossipkit/internal/membership"
	"gossipkit/internal/xrand"
)

// RunRDG and RunLpbcast are the synchronous-round loops the RDG and
// lpbcast DES machines replaced. No production caller runs them; they stay
// as the reference TestDESMatchesLegacyLoops and the per-protocol
// behaviour tests compare against.

// RunRDG executes the protocol. During push rounds, holders gossip the
// payload; every push also spreads the packet *id* (a digest), making
// recipients "aware". During recovery rounds, aware-but-missing members
// pull from a random view neighbor (NACK), succeeding if the neighbor
// holds the payload.
func RunRDG(p RDGParams, r *xrand.RNG) (RDGResult, error) {
	if err := p.Validate(); err != nil {
		return RDGResult{}, err
	}
	views := membership.NewPartialViews(p.N, p.ViewCopies, r)
	views.Shuffle(5, 3, r)
	mask := failure.ExactMask(p.N, p.AliveRatio, p.Source, r)

	res := RDGResult{Result: Result{AliveCount: mask.AliveCount()}}
	has := make([]bool, p.N)       // holds payload
	aware := make([]bool, p.N)     // knows the packet id
	provider := make([]int32, p.N) // who advertised the id to us
	for i := range provider {
		provider[i] = -1
	}
	has[p.Source] = true
	aware[p.Source] = true
	res.Delivered = 1
	res.DeliveredByPush = 1

	// Push phase. RDG gossips data packets AND packet-id digests: holders
	// push the payload to Fanout targets; aware non-holders forward the
	// digest (ids ride on every gossip message in RDG), so awareness
	// outruns the payload and seeds the NACK-based recovery.
	targets := make([]int, 0, p.Fanout)
	for round := 0; round < p.PushRounds; round++ {
		res.Rounds++
		type push struct {
			from, to int
			payload  bool
		}
		var pushes []push
		for id := 0; id < p.N; id++ {
			if !mask.Alive(id) || !aware[id] {
				continue
			}
			targets = views.SampleTargets(targets, id, p.Fanout, r)
			for _, t := range targets {
				withPayload := has[id] && (p.PayloadProb == 0 || r.Bool(p.PayloadProb))
				pushes = append(pushes, push{from: id, to: t, payload: withPayload})
				res.MessagesSent++
			}
		}
		for _, ps := range pushes {
			if !mask.Alive(ps.to) {
				continue
			}
			if !aware[ps.to] || !has[ps.to] {
				provider[ps.to] = int32(ps.from)
			}
			aware[ps.to] = true
			if ps.payload && !has[ps.to] {
				has[ps.to] = true
				res.Delivered++
				res.DeliveredByPush++
			}
		}
	}
	// Recovery phase: aware-but-missing members NACK their provider (who
	// advertised the id); the pull succeeds when the provider holds the
	// payload by now. Failed pulls re-aim at a random view member.
	// Provider possession is evaluated against the round-start state
	// (synchronous-round semantics, like the LRG repair snapshot): a
	// member recovered this round serves pulls from the next round on,
	// which is also exactly what the message-based DES runtime produces.
	var snapshot []bool
	for round := 0; round < p.RecoveryRounds; round++ {
		res.Rounds++
		snapshot = append(snapshot[:0], has...)
		recovered := 0
		for id := 0; id < p.N; id++ {
			if !mask.Alive(id) || has[id] || !aware[id] {
				continue
			}
			target := int(provider[id])
			if target < 0 || !mask.Alive(target) || !snapshot[target] {
				targets = views.SampleTargets(targets, id, 1, r)
				if len(targets) != 1 {
					continue
				}
				target = targets[0]
			}
			res.MessagesSent++ // the NACK
			if mask.Alive(target) && snapshot[target] {
				res.MessagesSent++ // the retransmission
				has[id] = true
				res.Delivered++
				res.DeliveredByPull++
				recovered++
			} else {
				provider[id] = int32(target) // remember for next round
			}
		}
		if recovered == 0 && round > 0 {
			break
		}
	}
	for id := 0; id < p.N; id++ {
		if mask.Alive(id) && aware[id] && !has[id] {
			res.AwareMisses++
		}
	}
	finish(&res.Result)
	return res, nil
}

// RunLpbcast executes the lpbcast-style protocol and reports per-event
// delivery. The simulation is synchronous-round over SCAMP partial views.
func RunLpbcast(p LpbcastParams, r *xrand.RNG) (LpbcastResult, error) {
	if err := p.Validate(); err != nil {
		return LpbcastResult{}, err
	}
	views := membership.NewPartialViews(p.N, p.ViewCopies, r)
	views.Shuffle(5, 3, r)
	mask := failure.ExactMask(p.N, p.AliveRatio, p.Source, r)

	members := make([]lpbcastMember, p.N)
	for i := range members {
		members[i].seen = map[int32]bool{}
	}
	res := LpbcastResult{AliveCount: mask.AliveCount()}
	res.DeliveredPerEvent = make([]int, p.Events)

	deliver := func(id int, ev int32) {
		m := &members[id]
		if m.seen[ev] {
			return
		}
		m.seen[ev] = true
		res.DeliveredPerEvent[ev]++
		m.buffer = append(m.buffer, ev)
		// Age-out: keep only the newest BufferSize events.
		if len(m.buffer) > p.BufferSize {
			m.buffer = m.buffer[len(m.buffer)-p.BufferSize:]
		}
	}

	// Inject all events at the source.
	for e := 0; e < p.Events; e++ {
		deliver(p.Source, int32(e))
	}

	type msg struct {
		to     int
		events []int32
	}
	targets := make([]int, 0, p.Fanout)
	for round := 0; round < p.Rounds; round++ {
		var outbox []msg
		for id := 0; id < p.N; id++ {
			m := &members[id]
			if !mask.Alive(id) || len(m.buffer) == 0 {
				continue
			}
			targets = views.SampleTargets(targets, id, p.Fanout, r)
			payload := append([]int32(nil), m.buffer...)
			for _, t := range targets {
				outbox = append(outbox, msg{to: t, events: payload})
				res.MessagesSent++
			}
		}
		for _, mg := range outbox {
			if !mask.Alive(mg.to) {
				continue
			}
			for _, ev := range mg.events {
				deliver(mg.to, ev)
			}
		}
	}

	var sum float64
	min := 1.0
	for _, d := range res.DeliveredPerEvent {
		rel := float64(d) / float64(res.AliveCount)
		sum += rel
		if rel < min {
			min = rel
		}
	}
	res.MeanReliability = sum / float64(p.Events)
	res.MinReliability = min
	return res, nil
}
