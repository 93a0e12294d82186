package sim

import (
	"fmt"
	"testing"
	"time"

	"gossipkit/internal/xrand"
)

// differential fuzz: closure events + cancels, heap vs calendar.
func TestCalendarFuzzClosure(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, hint := range []time.Duration{50 * time.Microsecond, time.Millisecond, 8 * time.Millisecond} {
			runOne := func(k *Kernel) []string {
				var tr []string
				var cancels []*Event
				r := xrand.New(seed)
				for i := 0; i < 40; i++ {
					i := i
					at := Time(time.Duration(r.Intn(8)) * time.Millisecond)
					cancels = append(cancels, k.At(at, func() {
						tr = append(tr, fmt.Sprintf("%d@%v", i, k.Now()))
					}))
				}
				for i := 0; i < 40; i += 3 {
					ok := k.Cancel(cancels[i])
					tr = append(tr, fmt.Sprintf("c%d=%v", i, ok))
				}
				_ = k.Run(Time(3 * time.Millisecond))
				tr = append(tr, fmt.Sprintf("h@%v", k.Now()))
				for i := 40; i < 60; i++ {
					i := i
					at := k.Now().Add(time.Duration(r.Intn(8_000_000)))
					cancels = append(cancels, k.At(at, func() {
						tr = append(tr, fmt.Sprintf("%d@%v", i, k.Now()))
						if r.Bool(0.3) {
							v := r.Intn(len(cancels))
							tr = append(tr, fmt.Sprintf("c%d=%v", v, k.Cancel(cancels[v])))
						}
					}))
				}
				_ = k.RunAll()
				return tr
			}
			want := runOne(New())
			kc := New()
			kc.SetBoundedDelayHint(hint, 0)
			got := runOne(kc)
			if len(got) != len(want) {
				t.Fatalf("seed=%d hint=%v: len %d vs %d", seed, hint, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed=%d hint=%v diverge at %d: cal=%s heap=%s", seed, hint, i, got[i], want[i])
				}
			}
		}
	}
}

// differential fuzz: typed events, random times, heap vs calendar.
func TestCalendarFuzzTyped(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, hint := range []time.Duration{50 * time.Microsecond, time.Millisecond, 8 * time.Millisecond} {
			runOne := func(k *Kernel) []string {
				var tr []string
				r := xrand.New(seed)
				var h HandlerID
				h = k.RegisterHandler(func(now Time, node, depth int32) {
					tr = append(tr, fmt.Sprintf("%d@%v", node, now))
					if depth < 2 && r.Bool(0.4) {
						nkids := 1 + r.Intn(2)
						for c := 0; c < nkids; c++ {
							d := time.Duration(r.Intn(3_000_000)) * time.Nanosecond
							k.Schedule(now.Add(d), h, node*10+int32(c), depth+1)
						}
					}
				})
				for i := 0; i < 40; i++ {
					at := Time(time.Duration(r.Intn(8)) * time.Millisecond)
					k.Schedule(at, h, int32(i), 0)
				}
				_ = k.Run(Time(3 * time.Millisecond))
				tr = append(tr, fmt.Sprintf("h@%v", k.Now()))
				for i := 0; i < 20; i++ {
					at := k.Now().Add(time.Duration(r.Intn(8_000_000)))
					k.Schedule(at, h, int32(1000+i), 0)
				}
				_ = k.RunAll()
				return tr
			}
			want := runOne(New())
			kc := New()
			kc.SetBoundedDelayHint(hint, 0)
			got := runOne(kc)
			if len(got) != len(want) {
				t.Fatalf("seed=%d hint=%v: len %d vs %d", seed, hint, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed=%d hint=%v diverge at %d: cal=%s heap=%s", seed, hint, i, got[i], want[i])
				}
			}
		}
	}
}

// fuzzOps decodes fuzz input into a kernel op stream and runs it, returning
// the fire trace. The same bytes drive the heap reference and the calendar
// (calendar set) through identical ops; handlers schedule follow-ups from
// their own arguments, never from shared state, so the two runs can only
// diverge in fire order.
func fuzzOps(data []byte, calendar bool) []string {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	bounds := []time.Duration{50 * time.Microsecond, time.Millisecond, 10 * time.Millisecond, time.Hour}
	pendings := []int{0, 1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	k := New()
	var tr []string
	var events []*Event
	var h HandlerID
	setup := func() {
		bound, pending := bounds[next()%len(bounds)], pendings[next()%len(pendings)]
		if calendar {
			k.SetBoundedDelayHint(bound, pending)
		}
		h = k.RegisterHandler(func(now Time, node, depth int32) {
			tr = append(tr, fmt.Sprintf("t%d@%d", node, now))
			if depth > 0 {
				// Children land inside the window, beyond it, and on
				// this very timestamp (a tie with later seq).
				k.Schedule(now.Add(time.Duration(int64(node)*7919%3_000_000)), h, node+1, depth-1)
				k.Schedule(now, h, node+2, depth-1)
				if node%5 == 0 {
					k.Schedule(now.Add(time.Duration(node)*time.Millisecond), h, node+3, depth-1)
				}
			}
		})
	}
	setup()
	delay := func(beyond bool) time.Duration {
		d := time.Duration(next()<<8|next()) * 50 * time.Nanosecond // up to ~3.3 ms
		if beyond {
			d = d*1000 + time.Duration(next())*time.Millisecond // up to ~3.5 s
		}
		return d
	}
	id := int32(0)
	for pos < len(data) && len(tr) < 20_000 {
		switch op := next(); op % 8 {
		case 0, 1: // typed event inside / beyond the window
			id += 10
			k.Schedule(k.Now().Add(delay(op%8 == 1)), h, id, int32(next()%3))
		case 2, 3: // closure event inside / beyond the window
			id += 10
			c := id
			events = append(events, k.After(delay(op%8 == 3), func() {
				tr = append(tr, fmt.Sprintf("c%d@%d", c, k.Now()))
			}))
		case 4: // cancel, possibly an already fired or canceled event
			if len(events) > 0 {
				v := next() % len(events)
				tr = append(tr, fmt.Sprintf("x%d=%v", v, k.Cancel(events[v])))
			}
		case 5: // run to a horizon
			_ = k.Run(k.Now().Add(delay(next()%4 == 0)))
			tr = append(tr, fmt.Sprintf("h@%d p=%d", k.Now(), k.Pending()))
		case 6: // reset and re-hint
			k.Reset()
			events = events[:0]
			tr = append(tr, "reset")
			setup()
		case 7: // ties on the current timestamp
			for i := next() % 8; i >= 0; i-- {
				id += 10
				k.Schedule(k.Now(), h, id, 0)
			}
		}
	}
	_ = k.RunAll()
	return append(tr, fmt.Sprintf("end@%d fired=%d", k.Now(), k.Fired()))
}

// FuzzCalendarVsHeap drives the heap and the calendar through the same
// decoded op stream — typed and closure events inside and beyond the
// bucket window, cancels, Run horizons, Reset with a re-hint of 0…10⁷
// pending — and requires identical fire traces. The seed corpus is
// random streams drawn from the differential tests' seeds 1–20, plus two
// short hand-written ones.
func FuzzCalendarVsHeap(f *testing.F) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := xrand.New(seed)
		b := make([]byte, 64+r.Intn(512))
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		f.Add(b)
	}
	f.Add([]byte{7, 7, 7, 7, 0, 0, 1, 2, 5, 0, 0, 7, 3, 6, 3, 8, 0, 0, 9, 9})
	f.Add([]byte{1, 1, 9, 9, 3, 2, 9, 9, 9, 4, 0, 5, 1, 0, 0, 6, 2, 8, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := fuzzOps(data, false)
		got := fuzzOps(data, true)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("traces diverge at %d: calendar %s, heap %s", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trace lengths differ: calendar %d, heap %d", len(got), len(want))
		}
	})
}
