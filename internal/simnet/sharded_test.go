package simnet

import (
	"testing"
	"time"

	"gossipkit/internal/sim"
	"gossipkit/internal/xrand"
)

// Both network shapes implement the fabric control surface.
var (
	_ Fabric = (*Network)(nil)
	_ Fabric = (*ShardedNet)(nil)
)

// newTestShardedNet builds a 2-shard fabric over 8 members (block 4) with
// fresh kernels, returning the fabric and its kernels.
func newTestShardedNet(t *testing.T, cfg Config) (*ShardedNet, []*sim.Kernel) {
	t.Helper()
	sn := NewShardedNet()
	sn.Prepare(2, 8, cfg)
	kernels := []*sim.Kernel{sim.New(), sim.New()}
	for s, k := range kernels {
		sn.ResetShard(s, k, xrand.New(uint64(100+s)))
	}
	return sn, kernels
}

func TestShardedNetCrossShardDelivery(t *testing.T) {
	sn, kernels := newTestShardedNet(t, Config{Latency: ConstantLatency{D: 5 * time.Millisecond}})
	var got []Message
	sn.Shard(1).RegisterAll(func(_ sim.Time, m Message) { got = append(got, m) })

	// 0 (shard 0) → 5 (shard 1): send-time accounting lands on shard 0,
	// the message parks in the cross buffer until the barrier.
	sn.Shard(0).Send(0, 5, nil)
	if s := sn.Shard(0).Stats(); s.Sent != 1 {
		t.Fatalf("source shard Sent = %d, want 1", s.Sent)
	}
	if sn.Buffered() != 1 {
		t.Fatalf("Buffered = %d, want 1", sn.Buffered())
	}
	if kernels[1].Pending() != 0 {
		t.Fatalf("destination kernel has %d events before the barrier", kernels[1].Pending())
	}
	if sn.Drained() {
		t.Fatal("Drained true with a buffered cross-shard message")
	}

	sn.Flush(sim.Time(5 * time.Millisecond))
	if sn.Buffered() != 0 {
		t.Fatalf("Buffered = %d after Flush, want 0", sn.Buffered())
	}
	if err := kernels[1].RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].From != 0 || got[0].To != 5 {
		t.Fatalf("delivered %+v, want one message 0→5", got)
	}
	if now := kernels[1].Now(); now != sim.Time(5*time.Millisecond) {
		t.Fatalf("delivered at %v, want the drawn latency 5ms", now)
	}
	total := sn.Stats()
	if total.Sent != 1 || total.Delivered != 1 || total.InFlight() != 0 {
		t.Fatalf("aggregate stats %+v", total)
	}
	if !sn.Drained() {
		t.Fatal("Drained false after delivery")
	}
}

// TestShardedNetHintsShardMembers checks that each shard kernel's calendar
// is hinted with the shard's own member count, not the group's: 10
// members on 3 shards are blocks of 4, 4 and 2. A re-Prepare for another
// shape re-hints the recycled networks, and the single-kernel Network
// keeps hinting its whole group.
func TestShardedNetHintsShardMembers(t *testing.T) {
	cfg := Config{Latency: UniformLatency{Lo: time.Millisecond, Hi: 10 * time.Millisecond}}
	sn := NewShardedNet()
	kernels := []*sim.Kernel{sim.New(), sim.New(), sim.New()}
	for _, tc := range []struct {
		n, shards int
		want      []int
	}{
		{10, 3, []int{4, 4, 2}},
		{1000, 2, []int{500, 500}},
		{7, 1, []int{7}},
	} {
		sn.Prepare(tc.shards, tc.n, cfg)
		for s := 0; s < tc.shards; s++ {
			kernels[s].Reset()
			sn.ResetShard(s, kernels[s], xrand.New(uint64(s)))
			if kernels[s].QueueKind() != "calendar" {
				t.Fatalf("n=%d shards=%d: shard %d runs the %s", tc.n, tc.shards, s, kernels[s].QueueKind())
			}
			if got := kernels[s].PendingHint(); got != tc.want[s] {
				t.Errorf("n=%d shards=%d: shard %d hinted %d pending, want %d", tc.n, tc.shards, s, got, tc.want[s])
			}
		}
	}
	k := sim.New()
	New(k, 1000, xrand.New(1), cfg)
	if got := k.PendingHint(); got != 1000 {
		t.Errorf("single-kernel network hinted %d pending, want 1000", got)
	}
}

func TestShardedNetCrossShardCrashDrop(t *testing.T) {
	sn, kernels := newTestShardedNet(t, Config{Latency: ConstantLatency{D: time.Millisecond}})
	sn.Shard(1).RegisterAll(func(sim.Time, Message) { t.Fatal("delivered to crashed node") })
	sn.Shard(0).Send(1, 6, nil)
	sn.Crash(6) // fabric routes to the owning shard
	if sn.Up(6) {
		t.Fatal("node 6 still up after Crash")
	}
	sn.Flush(sim.Time(time.Millisecond))
	if err := kernels[1].RunAll(); err != nil {
		t.Fatal(err)
	}
	total := sn.Stats()
	if total.Sent != 1 || total.DroppedCrash != 1 || total.InFlight() != 0 {
		t.Fatalf("aggregate stats %+v", total)
	}
}

func TestShardedNetLocalSendStaysLocal(t *testing.T) {
	sn, kernels := newTestShardedNet(t, Config{Latency: ConstantLatency{D: time.Millisecond}})
	delivered := 0
	sn.Shard(0).RegisterAll(func(sim.Time, Message) { delivered++ })
	sn.Shard(0).Send(0, 3, nil) // both in shard 0's block
	if sn.Buffered() != 0 {
		t.Fatalf("local send buffered cross-shard: %d", sn.Buffered())
	}
	if err := kernels[0].RunAll(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
}

func TestShardedNetFlushClampsEarlyArrivals(t *testing.T) {
	sn, kernels := newTestShardedNet(t, Config{Latency: UniformLatency{Lo: 2 * time.Millisecond, Hi: 8 * time.Millisecond}})
	var at sim.Time
	sn.Shard(1).RegisterAll(func(now sim.Time, _ Message) { at = now })
	sn.Shard(0).Send(2, 7, nil)
	// A latency swap below the run's lookahead can leave a buffered
	// arrival before the barrier; Flush clamps it to the window end.
	wend := sim.Time(20 * time.Millisecond)
	sn.Flush(wend)
	if err := kernels[1].RunAll(); err != nil {
		t.Fatal(err)
	}
	if at < wend {
		t.Fatalf("arrival at %v before the flush barrier %v", at, wend)
	}
}

func TestShardedNetClonesStatefulLoss(t *testing.T) {
	ge := NewGilbertElliott(0.5, 0.5, 0.1, 0.9)
	sn, _ := newTestShardedNet(t, Config{Latency: ConstantLatency{D: time.Millisecond}, Loss: ge})
	if sn.cfgs[0].Loss == LossModel(ge) || sn.cfgs[1].Loss == LossModel(ge) ||
		sn.cfgs[0].Loss == sn.cfgs[1].Loss {
		t.Fatal("stateful loss model shared instead of cloned per shard")
	}
	// SetLoss mid-run clones again.
	sn.SetLoss(ge)
	if sn.nets[0].loss == sn.nets[1].loss {
		t.Fatal("SetLoss shared one stateful model across shards")
	}
	// Stateless models are shared as-is.
	sn.SetLoss(BernoulliLoss{P: 0.25})
	if sn.nets[0].loss != LossModel(BernoulliLoss{P: 0.25}) {
		t.Fatal("stateless loss model not installed")
	}
}

func TestGilbertElliottCloneLoss(t *testing.T) {
	g := NewGilbertElliott(1, 0, 0, 1) // jumps to Bad on first draw, stays
	r := xrand.New(7)
	g.Drop(r, 0, 1)
	c := g.CloneLoss().(*GilbertElliott)
	if c == g {
		t.Fatal("CloneLoss returned the receiver")
	}
	if c.bad != g.bad {
		t.Fatal("CloneLoss did not copy the channel state")
	}
	c.bad = false
	if !g.bad {
		t.Fatal("clone state aliases the original")
	}
}

func TestScheduleArrivalClampsToNow(t *testing.T) {
	k := sim.New()
	nw := New(k, 4, xrand.New(1), Config{})
	var at sim.Time
	nw.RegisterAll(func(now sim.Time, _ Message) { at = now })
	k.At(sim.Time(10*time.Millisecond), func() {
		nw.ScheduleArrival(0, 1, 0, 0, sim.Time(2*time.Millisecond))
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != sim.Time(10*time.Millisecond) {
		t.Fatalf("arrival at %v, want clamped to 10ms", at)
	}
}

func TestLatencyFloors(t *testing.T) {
	cases := []struct {
		model LatencyModel
		want  time.Duration
	}{
		{ConstantLatency{D: 3 * time.Millisecond}, 3 * time.Millisecond},
		{UniformLatency{Lo: time.Millisecond, Hi: 9 * time.Millisecond}, time.Millisecond},
		{ExponentialLatency{Floor: 2 * time.Millisecond, Mean: time.Millisecond}, 2 * time.Millisecond},
	}
	for _, c := range cases {
		f, ok := c.model.(LatencyFloorer)
		if !ok {
			t.Fatalf("%T does not implement LatencyFloorer", c.model)
		}
		if d, ok := f.LatencyFloor(); !ok || d != c.want {
			t.Fatalf("%T floor = %v/%v, want %v", c.model, d, ok, c.want)
		}
	}
}
