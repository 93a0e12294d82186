package sim

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// ---------------------------------------------------------------------------
// Reference kernel: the pre-flat-queue implementation — a container/heap of
// *oldEvent closures with eager heap removal on cancel. The equivalence
// test asserts the flat 4-ary value heap fires adversarial schedules in
// exactly the order this kernel does.

type oldEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int
}

type oldQueue []*oldEvent

func (q oldQueue) Len() int { return len(q) }
func (q oldQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oldQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *oldQueue) Push(x any) {
	e := x.(*oldEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *oldQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type oldKernel struct {
	now   Time
	queue oldQueue
	seq   uint64
}

func (k *oldKernel) at(at Time, fn func()) *oldEvent {
	k.seq++
	e := &oldEvent{at: at, seq: k.seq, fn: fn}
	heap.Push(&k.queue, e)
	return e
}

func (k *oldKernel) cancel(e *oldEvent) bool {
	if e == nil || e.index < 0 {
		return false
	}
	heap.Remove(&k.queue, e.index)
	e.index = -1
	return true
}

func (k *oldKernel) run(horizon Time) {
	for len(k.queue) > 0 && k.queue[0].at <= horizon {
		e := heap.Pop(&k.queue).(*oldEvent)
		e.index = -1
		k.now = e.at
		e.fn()
	}
}

// ---------------------------------------------------------------------------
// Driver abstraction so one adversarial script exercises both kernels.

type driver interface {
	schedule(at Time, fn func()) (cancel func() bool)
	now() Time
	run(horizon Time)
}

type newDriver struct{ k *Kernel }

func (d newDriver) schedule(at Time, fn func()) func() bool {
	e := d.k.At(at, fn)
	return func() bool { return d.k.Cancel(e) }
}
func (d newDriver) now() Time        { return d.k.Now() }
func (d newDriver) run(horizon Time) { _ = d.k.Run(horizon) }

type oldDriver struct{ k *oldKernel }

func (d oldDriver) schedule(at Time, fn func()) func() bool {
	e := d.k.at(at, fn)
	return func() bool { return d.k.cancel(e) }
}
func (d oldDriver) now() Time        { return d.k.now }
func (d oldDriver) run(horizon Time) { d.k.run(horizon) }

// adversarialTrace drives d through a schedule designed to stress exactly
// what the flat queue changed: heavy same-timestamp collisions (FIFO tie
// order), cancels of pending events interleaved with firing (including
// cancels issued from inside running events), nested rescheduling, and a
// horizon split mid-schedule. Every decision derives from a hash of the
// event id, so both kernels see an identical script as long as their fire
// orders agree — and the returned trace pins the order itself.
func adversarialTrace(d driver) []string {
	var trace []string
	var cancels []func() bool
	id := 0

	hash := func(x int) uint64 {
		h := uint64(x)*0x9e3779b97f4a7c15 + 0x85ebca6b
		h ^= h >> 33
		h *= 0xc2b2ae3d27d4eb4f
		h ^= h >> 29
		return h
	}

	var spawn func(depth int, at Time)
	spawn = func(depth int, at Time) {
		myID := id
		id++
		h := hash(myID)
		cancel := d.schedule(at, func() {
			trace = append(trace, fmt.Sprintf("fire:%d@%v", myID, d.now()))
			if depth < 3 && h%3 == 0 {
				// Two children at colliding timestamps.
				delta := time.Duration(h>>8%3) * time.Millisecond
				spawn(depth+1, d.now().Add(delta))
				spawn(depth+1, d.now().Add(delta))
			}
			if h%5 == 0 && len(cancels) > 0 {
				victim := int(h >> 16 % uint64(len(cancels)))
				ok := cancels[victim]()
				trace = append(trace, fmt.Sprintf("cancel:%d=%v", victim, ok))
			}
		})
		cancels = append(cancels, cancel)
	}

	// Phase 1: 64 roots spread over just 8 distinct timestamps — every
	// timestamp hosts a FIFO pile-up.
	for i := 0; i < 64; i++ {
		at := Time(time.Duration(hash(1000+i)%8) * time.Millisecond)
		spawn(0, at)
	}
	// Cancel a deterministic third of them before anything fires.
	for i := 0; i < len(cancels); i += 3 {
		ok := cancels[i]()
		trace = append(trace, fmt.Sprintf("precancel:%d=%v", i, ok))
	}
	// Phase 2: run to a horizon that bisects the pile, schedule a second
	// wave (ties with survivors of the first), then drain.
	d.run(Time(3 * time.Millisecond))
	trace = append(trace, fmt.Sprintf("horizon@%v", d.now()))
	for i := 0; i < 32; i++ {
		at := d.now().Add(time.Duration(hash(2000+i)%8) * time.Millisecond)
		spawn(0, at)
	}
	d.run(End)
	// Canceling after the drain must be a uniform no-op.
	for i := 0; i < len(cancels); i += 7 {
		trace = append(trace, fmt.Sprintf("postcancel:%d=%v", i, cancels[i]()))
	}
	return trace
}

// TestFlatQueueMatchesReferenceHeap locks the flat 4-ary heap to the old
// closure-heap kernel, event for event, on a cancel-heavy same-timestamp
// schedule.
func TestFlatQueueMatchesReferenceHeap(t *testing.T) {
	got := adversarialTrace(newDriver{New()})
	want := adversarialTrace(oldDriver{&oldKernel{}})
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: flat=%d reference=%d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("traces diverge at %d:\n  flat:      %s\n  reference: %s", i, got[i], want[i])
		}
	}
	if len(got) < 150 {
		t.Fatalf("schedule too tame: only %d trace entries", len(got))
	}
}

// TestCalendarQueueMatchesReferenceHeap runs the same adversarial
// tie/cancel schedule against calendar-backed kernels across a spread of
// delay hints — a hint much smaller than the schedule's reach (constant
// window sliding and overflow migration), one around it, and one vastly
// larger (everything collapses into few buckets) — and requires the exact
// reference fire order every time.
func TestCalendarQueueMatchesReferenceHeap(t *testing.T) {
	want := adversarialTrace(oldDriver{&oldKernel{}})
	for _, hint := range []time.Duration{
		100 * time.Microsecond, 2 * time.Millisecond, time.Hour,
	} {
		k := New()
		k.SetBoundedDelayHint(hint, 0)
		if k.QueueKind() != "calendar" {
			t.Fatalf("hint %v did not select the calendar queue", hint)
		}
		got := adversarialTrace(newDriver{k})
		if len(got) != len(want) {
			t.Fatalf("hint %v: trace lengths differ: calendar=%d reference=%d", hint, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("hint %v: traces diverge at %d:\n  calendar:  %s\n  reference: %s", hint, i, got[i], want[i])
			}
		}
	}
}

// TestCalendarQueueResetRecyclesBuckets checks the arena cycle: Reset
// reverts to the heap, a fresh hint reactivates the same calendar with its
// warm buckets, and the replayed schedule still matches the reference.
func TestCalendarQueueResetRecyclesBuckets(t *testing.T) {
	want := adversarialTrace(oldDriver{&oldKernel{}})
	k := New()
	for round := 0; round < 3; round++ {
		k.Reset()
		if k.QueueKind() != "heap" {
			t.Fatal("Reset did not revert to the heap")
		}
		k.SetBoundedDelayHint(time.Millisecond, 0)
		got := adversarialTrace(newDriver{k})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d diverges at %d: %s != %s", round, i, got[i], want[i])
			}
		}
	}
}

// TestCalendarOverflowMigration pins the overflow path directly: events
// scheduled far beyond the bucket window (as scenario campaigns do) must
// fire interleaved in exact time order with dense near-term traffic, and
// re-anchoring across a long idle gap must not reorder anything.
func TestCalendarOverflowMigration(t *testing.T) {
	k := New()
	k.SetBoundedDelayHint(time.Millisecond, 0) // window ≪ the schedule's reach
	var order []int
	h := k.RegisterHandler(func(_ Time, node, _ int32) { order = append(order, int(node)) })
	// Far-future events first (straight into overflow), then a dense
	// near-term burst, then mid-range events landing between the two.
	k.Schedule(Time(5*time.Second), h, 103, 0)
	k.Schedule(Time(1*time.Second), h, 101, 0)
	k.Schedule(Time(3*time.Second), h, 102, 0)
	for i := 0; i < 50; i++ {
		k.Schedule(Time(time.Duration(i%7)*100*time.Microsecond), h, int32(i), 0)
	}
	k.Schedule(Time(1*time.Second+50*time.Microsecond), h, 104, 0) // ties into 101's bucket region
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 54 {
		t.Fatalf("fired %d events, want 54", len(order))
	}
	tail := order[50:]
	for i, want := range []int{101, 104, 102, 103} {
		if tail[i] != want {
			t.Fatalf("overflow events fired as %v, want [101 104 102 103]", tail)
		}
	}
}

// TestCalendarGrowKeepsOrder floods a small window with far more records
// than the initial ring (forcing several grow/rebucket cycles mid-schedule)
// and checks the FIFO-within-timestamp guarantee survives every rebuild.
func TestCalendarGrowKeepsOrder(t *testing.T) {
	k := New()
	k.SetBoundedDelayHint(10*time.Millisecond, 0)
	const events = 3 * calendarGrowAt * calendarInitBuckets
	fired := 0
	prevAt, prevNode := Time(-1), int32(-1)
	h := k.RegisterHandler(func(now Time, node, _ int32) {
		if now < prevAt {
			t.Fatalf("time went backwards: %v after %v", now, prevAt)
		}
		if now == prevAt && node <= prevNode {
			t.Fatalf("FIFO broken at %v: node %d after %d", now, node, prevNode)
		}
		prevAt, prevNode = now, node
		fired++
	})
	for i := 0; i < events; i++ {
		// 8 distinct timestamps — massive ties — scheduled in node order.
		k.Schedule(Time(time.Duration(i%8)*time.Millisecond), h, int32(i), 0)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != events {
		t.Fatalf("fired %d, want %d", fired, events)
	}
	if prevAt != Time(7*time.Millisecond) {
		t.Fatalf("last event at %v", prevAt)
	}
}

// TestCalendarScheduleZeroAlloc pins the calendar hot path at zero heap
// allocations per event once buckets are warm — the property that lets the
// bounded-latency band run n=10⁷ without GC pressure.
func TestCalendarScheduleZeroAlloc(t *testing.T) {
	k := New()
	k.SetBoundedDelayHint(time.Millisecond, 0)
	var count int
	h := k.RegisterHandler(func(_ Time, _, _ int32) { count++ })
	warm := func() {
		base := k.Now()
		for i := 0; i < 1024; i++ {
			k.Schedule(base.Add(time.Duration(i%37)*time.Microsecond), h, int32(i), 0)
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up must carry the sliding window across the whole bucket ring
	// once: a ring slot allocates its record storage the first time the
	// window reaches it, and is allocation-free from then on.
	for k.Now() < Time(10*time.Millisecond) {
		warm()
	}
	allocs := testing.AllocsPerRun(10, warm)
	if allocs != 0 {
		t.Fatalf("calendar schedule+fire path allocates %.1f per 1024-event batch, want 0", allocs)
	}
}

// TestTypedAndClosureEventsShareFIFOOrder checks that typed (Schedule) and
// closure (At) events interleave in strict scheduling order at equal
// timestamps — one global seq counter spans both paths.
func TestTypedAndClosureEventsShareFIFOOrder(t *testing.T) {
	k := New()
	var order []int
	h := k.RegisterHandler(func(_ Time, node, _ int32) { order = append(order, int(node)) })
	at := Time(time.Millisecond)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			k.Schedule(at, h, int32(i), 0)
		} else {
			i := i
			k.At(at, func() { order = append(order, i) })
		}
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("typed/closure ties not FIFO: %v", order)
		}
	}
}

// TestKernelReset checks that a Reset kernel behaves like a fresh one and
// invalidates pre-Reset handles.
func TestKernelReset(t *testing.T) {
	k := New()
	h := k.RegisterHandler(func(_ Time, _, _ int32) {})
	k.Schedule(Time(time.Millisecond), h, 0, 0)
	stale := k.After(2*time.Millisecond, func() { t.Error("pre-Reset event fired") })
	k.SetBudget(5)

	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 || k.Fired() != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d fired=%d", k.Now(), k.Pending(), k.Fired())
	}
	if !stale.Canceled() {
		t.Error("pre-Reset handle still pending")
	}
	if k.Cancel(stale) {
		t.Error("pre-Reset handle canceled successfully")
	}

	var fired []int
	h2 := k.RegisterHandler(func(_ Time, node, _ int32) { fired = append(fired, int(node)) })
	k.Schedule(Time(time.Millisecond), h2, 1, 0)
	k.After(2*time.Millisecond, func() { fired = append(fired, 2) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("post-Reset run fired %v", fired)
	}
	if k.Now() != Time(2*time.Millisecond) {
		t.Fatalf("post-Reset clock at %v", k.Now())
	}
}

// TestScheduleZeroAlloc pins the typed hot path at zero heap allocations
// per event in steady state (queue capacity warmed).
func TestScheduleZeroAlloc(t *testing.T) {
	k := New()
	var count int
	h := k.RegisterHandler(func(_ Time, _, _ int32) { count++ })
	warm := func() {
		base := k.Now()
		for i := 0; i < 1024; i++ {
			k.Schedule(base.Add(time.Duration(i%37)*time.Microsecond), h, int32(i), 0)
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	allocs := testing.AllocsPerRun(10, warm)
	if allocs != 0 {
		t.Fatalf("typed schedule+fire path allocates %.1f per 1024-event batch, want 0", allocs)
	}
}

// TestCalendarRingFootprintBounded pins the ring's cache budget: the
// largest ring, slots plus one tail segment each, fits calendarRingBytes
// (and is the largest power of two that does); a 10⁷ pending hint — the
// n=10⁷ network's — gets no more than that ring, still covers the delay
// bound, and a deep hold-model load neither grows it nor allocates once
// warm.
func TestCalendarRingFootprintBounded(t *testing.T) {
	perSlot := int(unsafe.Sizeof(calBucket{}) + unsafe.Sizeof(calSegment{}))
	if calendarMaxBuckets*perSlot > calendarRingBytes || 2*calendarMaxBuckets*perSlot <= calendarRingBytes {
		t.Fatalf("%d slots of %d bytes is not the largest power-of-two ring within %d bytes",
			calendarMaxBuckets, perSlot, calendarRingBytes)
	}
	const bound = 10 * time.Millisecond
	k := New()
	k.SetBoundedDelayHint(bound, 10_000_000)
	ringBytes := func() int { return len(k.cal.buckets) * perSlot }
	if ringBytes() > calendarRingBytes {
		t.Fatalf("10⁷ hint built a %d-byte ring, budget %d", ringBytes(), calendarRingBytes)
	}
	if window := time.Duration(len(k.cal.buckets)) << k.cal.widthShift; window < bound {
		t.Fatalf("window %v does not cover the %v bound", window, bound)
	}
	// Hold model, 1–10 ms delays, depth far past the ring's slot count.
	const depth = 50_000
	var h HandlerID
	h = k.RegisterHandler(func(now Time, node, _ int32) {
		d := time.Millisecond + time.Duration(uint32(node)*2654435761%9_000_000)
		k.Schedule(now.Add(d), h, node+1, 0)
	})
	for i := 0; i < depth; i++ {
		k.Schedule(Time(time.Millisecond+time.Duration(i*179)), h, int32(i), 0)
	}
	steps := func() {
		for i := 0; i < depth; i++ {
			if !k.Step() {
				t.Fatal("queue ran dry")
			}
		}
	}
	for i := 0; i < 4; i++ { // warm: carry the window across the ring
		steps()
	}
	if allocs := testing.AllocsPerRun(3, steps); allocs != 0 {
		t.Fatalf("warm hold path allocates %.1f per %d events, want 0", allocs, depth)
	}
	if ringBytes() > calendarRingBytes {
		t.Fatalf("ring grew to %d bytes under load, budget %d", ringBytes(), calendarRingBytes)
	}
	if k.Pending() != depth {
		t.Fatalf("pending %d, want %d", k.Pending(), depth)
	}
}
