package sim

import (
	"fmt"
	"testing"
	"time"

	"gossipkit/internal/xrand"
)

// BenchmarkCalendarHold times the calendar queue in the classic hold
// model at the shape the simulated network gives it: depth typed events
// pending, every fired event scheduling one successor 1–10 ms later, and
// the kernel hinted the way simnet.Network.Reset hints it (pending = group
// size n, with depth ≈ 0.28·n as measured at n=10⁶). The depths span a
// small run (5·10³), the n=10⁶ multicast (2.8·10⁵) and n=10⁷ (2.8·10⁶).
// ns/op is nanoseconds per fired event, schedule included.
func BenchmarkCalendarHold(b *testing.B) {
	for _, depth := range []int{5_000, 280_000, 2_800_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			const table = 1 << 16
			r := xrand.New(uint64(depth))
			delays := make([]time.Duration, table)
			for i := range delays {
				delays[i] = time.Millisecond + time.Duration(r.Uint64n(uint64(9*time.Millisecond)+1))
			}
			n := int(int64(depth) * 1_000_000 / 280_000)
			k := New()
			k.SetBoundedDelayHint(10*time.Millisecond, n)
			j := 0
			var h HandlerID
			h = k.RegisterHandler(func(now Time, node, payload int32) {
				k.Schedule(now.Add(delays[j&(table-1)]), h, node, payload)
				j++
			})
			for i := 0; i < depth; i++ {
				k.Schedule(Time(delays[i&(table-1)]), h, int32(i), 0)
			}
			// Untimed warm-up: carry the window across the ring a few
			// times so the record pool reaches its steady size.
			for i := 0; i < 4*depth; i++ {
				k.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}
