package protocols

import (
	"fmt"

	"gossipkit/internal/failure"
	"gossipkit/internal/graph"
	"gossipkit/internal/xrand"
)

// Result is the common outcome report for baseline protocols.
type Result struct {
	// AliveCount is the number of nonfailed members.
	AliveCount int
	// Delivered is the number of nonfailed members that got the message.
	Delivered int
	// Reliability is Delivered/AliveCount.
	Reliability float64
	// MessagesSent counts protocol messages (payload pushes; repair
	// pulls count as one message each).
	MessagesSent int
	// Rounds is the number of rounds actually executed.
	Rounds int
}

func finish(res *Result) {
	if res.AliveCount > 0 {
		res.Reliability = float64(res.Delivered) / float64(res.AliveCount)
	}
}

// ---------------------------------------------------------------------------
// Pbcast-style round-based gossip

// PbcastParams configures the round-based anti-entropy baseline.
type PbcastParams struct {
	// N is the group size.
	N int
	// Fanout is the per-round fanout of every infected member.
	Fanout int
	// Rounds is the number of gossip rounds.
	Rounds int
	// AliveRatio is the nonfailed member ratio q.
	AliveRatio float64
	// Source initiates the multicast and never fails.
	Source int
}

// Validate checks the parameters.
func (p PbcastParams) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("protocols: group size %d too small", p.N)
	}
	if p.Fanout < 0 {
		return fmt.Errorf("protocols: negative fanout %d", p.Fanout)
	}
	if p.Rounds < 1 {
		return fmt.Errorf("protocols: rounds %d < 1", p.Rounds)
	}
	if p.AliveRatio < 0 || p.AliveRatio > 1 || p.AliveRatio != p.AliveRatio {
		return fmt.Errorf("protocols: alive ratio %g outside [0,1]", p.AliveRatio)
	}
	if p.Source < 0 || p.Source >= p.N {
		return fmt.Errorf("protocols: source %d out of range", p.Source)
	}
	return nil
}

// RunPbcast executes the round-based protocol: in each of Rounds rounds,
// every nonfailed member currently holding the message pushes it to Fanout
// uniformly chosen members. Unlike the paper's single-shot algorithm,
// holders re-gossip every round, so the spread cannot die out while the
// source lives.
func RunPbcast(p PbcastParams, r *xrand.RNG) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	mask := failure.ExactMask(p.N, p.AliveRatio, p.Source, r)
	res := Result{AliveCount: mask.AliveCount()}
	has := make([]bool, p.N)
	holders := make([]int32, 0, mask.AliveCount())
	has[p.Source] = true
	holders = append(holders, int32(p.Source))
	res.Delivered = 1
	targets := make([]int, 0, p.Fanout)
	for round := 0; round < p.Rounds; round++ {
		res.Rounds++
		newHolders := holders // append-only; new infections join next round
		for _, uu := range holders {
			u := int(uu)
			targets = r.SampleExcluding(targets, p.N, p.Fanout, u)
			res.MessagesSent += len(targets)
			for _, v := range targets {
				if has[v] || !mask.Alive(v) {
					continue
				}
				has[v] = true
				res.Delivered++
				newHolders = append(newHolders, int32(v))
			}
		}
		holders = newHolders
		if res.Delivered == res.AliveCount {
			break // everyone has it; further rounds are pure overhead
		}
	}
	finish(&res)
	return res, nil
}

// ---------------------------------------------------------------------------
// LRG: local retransmission + gossip

// LRGParams configures the LRG baseline.
type LRGParams struct {
	// N is the group size.
	N int
	// Degree is the overlay degree (neighbors per member).
	Degree int
	// GossipProb is the probability an infected member forwards to a
	// neighbor (probabilistic flooding).
	GossipProb float64
	// RepairRounds is the number of NACK-style local repair rounds: a
	// member missing the message pulls it from any neighbor that has it.
	RepairRounds int
	// AliveRatio is the nonfailed member ratio q.
	AliveRatio float64
	// Source initiates and never fails.
	Source int
}

// Validate checks the parameters.
func (p LRGParams) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("protocols: group size %d too small", p.N)
	}
	if p.Degree < 1 || p.Degree >= p.N {
		return fmt.Errorf("protocols: degree %d out of range", p.Degree)
	}
	if p.GossipProb < 0 || p.GossipProb > 1 {
		return fmt.Errorf("protocols: gossip probability %g outside [0,1]", p.GossipProb)
	}
	if p.RepairRounds < 0 {
		return fmt.Errorf("protocols: negative repair rounds %d", p.RepairRounds)
	}
	if p.AliveRatio < 0 || p.AliveRatio > 1 || p.AliveRatio != p.AliveRatio {
		return fmt.Errorf("protocols: alive ratio %g outside [0,1]", p.AliveRatio)
	}
	if p.Source < 0 || p.Source >= p.N {
		return fmt.Errorf("protocols: source %d out of range", p.Source)
	}
	return nil
}

// RunLRG executes LRG over a fresh random Degree-regular-ish overlay
// (configuration model): probabilistic flooding spreads the message, then
// RepairRounds of local pulls patch the holes the flooding left.
func RunLRG(p LRGParams, r *xrand.RNG) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	degrees := make([]int, p.N)
	for i := range degrees {
		degrees[i] = p.Degree
	}
	overlay := graph.ConfigurationModel(degrees, r)
	mask := failure.ExactMask(p.N, p.AliveRatio, p.Source, r)
	res := Result{AliveCount: mask.AliveCount()}

	has := make([]bool, p.N)
	queue := make([]int32, 0, mask.AliveCount())
	has[p.Source] = true
	queue = append(queue, int32(p.Source))
	res.Delivered = 1

	// Phase 1: probabilistic flooding.
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range overlay.Out(int(u)) {
			if !r.Bool(p.GossipProb) {
				continue
			}
			res.MessagesSent++
			if has[v] || !mask.Alive(int(v)) {
				continue
			}
			has[v] = true
			res.Delivered++
			queue = append(queue, v)
		}
	}
	// Phase 2: local repair — missing members pull from a neighbor that
	// has the message (one pull per round per missing member). Provider
	// eligibility is evaluated against the round-start state (synchronous-
	// round semantics, matching the anti-entropy snapshot): a member
	// repaired this round can serve as a provider from the next round on,
	// which is also exactly what the message-based DES runtime produces.
	var snapshot []bool
	for round := 0; round < p.RepairRounds; round++ {
		res.Rounds++
		snapshot = append(snapshot[:0], has...)
		fixed := 0
		for v := 0; v < p.N; v++ {
			if has[v] || !mask.Alive(v) {
				continue
			}
			for _, u := range overlay.Out(v) {
				if snapshot[u] {
					res.MessagesSent += 2 // NACK + retransmission
					has[v] = true
					res.Delivered++
					fixed++
					break
				}
			}
		}
		if fixed == 0 {
			break
		}
	}
	finish(&res)
	return res, nil
}

// ---------------------------------------------------------------------------
// Flooding

// FloodingParams configures the best-effort flooding baseline.
type FloodingParams struct {
	N          int
	AliveRatio float64
	Source     int
}

// Validate checks the parameters.
func (p FloodingParams) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("protocols: group size %d too small", p.N)
	}
	if p.AliveRatio < 0 || p.AliveRatio > 1 || p.AliveRatio != p.AliveRatio {
		return fmt.Errorf("protocols: alive ratio %g outside [0,1]", p.AliveRatio)
	}
	if p.Source < 0 || p.Source >= p.N {
		return fmt.Errorf("protocols: source %d out of range", p.Source)
	}
	return nil
}

// RunFlooding forwards to every other member on first receipt: reliability
// is always 1 among nonfailed members (the source reaches everyone
// directly), at Θ(n²) message cost — the upper envelope the gossip
// protocols are traded off against.
func RunFlooding(p FloodingParams, r *xrand.RNG) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	mask := failure.ExactMask(p.N, p.AliveRatio, p.Source, r)
	res := Result{AliveCount: mask.AliveCount()}
	has := make([]bool, p.N)
	queue := make([]int32, 0, mask.AliveCount())
	has[p.Source] = true
	queue = append(queue, int32(p.Source))
	res.Delivered = 1
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		res.MessagesSent += p.N - 1
		for v := 0; v < p.N; v++ {
			if v == u || has[v] || !mask.Alive(v) {
				continue
			}
			has[v] = true
			res.Delivered++
			queue = append(queue, int32(v))
		}
	}
	res.Rounds = 1
	finish(&res)
	return res, nil
}
