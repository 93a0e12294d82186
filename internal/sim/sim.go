package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a simulated timestamp. The zero Time is the simulation start.
// It counts nanoseconds, mirroring time.Duration, so durations interoperate.
type Time int64

// Add returns t advanced by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration since the simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns t in seconds since the simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// End is a sentinel time after every schedulable event.
const End Time = math.MaxInt64

// HandlerID identifies a typed event handler registered with
// RegisterHandler. The zero value is a valid id (the first handler
// registered); use Schedule only with ids returned by RegisterHandler.
type HandlerID int32

// closureHandler marks a record as a closure event dispatched through the
// slot table instead of the typed handler table.
const closureHandler HandlerID = -1

// record is one queued event. It is a plain value (32 bytes): pushing and
// popping records never touches the garbage collector.
type record struct {
	at      Time
	seq     uint64
	h       HandlerID // typed handler index, or closureHandler
	node    int32     // handler argument; slot index for closure events
	payload int32     // handler argument; unused for closure events
	gen     uint32    // slot generation for closure events
}

// before reports whether a fires before b: earlier time first, scheduling
// order (seq) breaking ties — the FIFO guarantee.
func (a record) before(b record) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// closureSlot parks a closure event's callback. gen increments every time
// the slot is released (fired, canceled, or reset), so stale queue records
// and stale Event handles can never observe a recycled slot.
type closureSlot struct {
	fn  func()
	gen uint32
}

// Event is a cancelable handle to a closure event scheduled with At or
// After. The zero value is not meaningful.
type Event struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// Canceled reports whether the event is no longer pending (it was canceled
// or has already fired).
func (e *Event) Canceled() bool {
	return e == nil || e.k.slots[e.slot].gen != e.gen
}

// Kernel is the simulation driver. The zero value is not usable; call New.
// A Kernel must be used from a single goroutine.
type Kernel struct {
	now    Time
	queue  []record // implicit 4-ary min-heap ordered by (at, seq)
	seq    uint64
	fired  uint64
	budget uint64 // 0 = unlimited
	live   int    // queued records that have not been canceled

	// cal, when useCal is set, replaces the heap as the event queue (see
	// SetBoundedDelayHint). The object is retained across Reset so its
	// bucket capacity is recycled by run-scoped arenas.
	cal    *CalendarQueue
	useCal bool
	hint   int // pending-events estimate the calendar was sized for

	handlers  []func(now Time, node, payload int32)
	slots     []closureSlot
	freeSlots []int32
}

// New returns a kernel at time zero.
func New() *Kernel { return &Kernel{} }

// Reset returns the kernel to time zero with an empty queue, retaining the
// queue, handler, and slot capacity so a run-scoped arena can recycle one
// kernel across many executions without reallocating. Registered handlers
// are dropped (re-register them for the next run) and Event handles from
// before the Reset become permanently canceled.
func (k *Kernel) Reset() {
	k.now = 0
	k.queue = k.queue[:0]
	k.useCal = false // revert to the heap until the next delay hint
	k.hint = 0
	if k.cal != nil {
		k.cal.clear()
	}
	k.seq = 0
	k.fired = 0
	k.budget = 0
	k.live = 0
	k.handlers = k.handlers[:0]
	k.freeSlots = k.freeSlots[:0]
	for i := range k.slots {
		// Invalidate outstanding handles and queue records, then put
		// every slot back on the free list.
		k.slots[i].fn = nil
		k.slots[i].gen++
		k.freeSlots = append(k.freeSlots, int32(i))
	}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// SetBudget caps the total number of events the kernel will execute;
// 0 removes the cap. Run returns ErrBudget when the cap is hit, which turns
// runaway protocol bugs into test failures instead of hangs.
func (k *Kernel) SetBudget(n uint64) { k.budget = n }

// ErrBudget is returned by Run when the event budget is exhausted.
var ErrBudget = errors.New("sim: event budget exhausted")

// RegisterHandler registers a typed event handler and returns its id for
// Schedule. Handlers are dispatched by index with the record's two payload
// words — no per-event closure exists anywhere on this path. Handlers
// cannot be unregistered; register once at setup (Reset drops them).
func (k *Kernel) RegisterHandler(h func(now Time, node, payload int32)) HandlerID {
	if h == nil {
		panic("sim: nil handler")
	}
	k.handlers = append(k.handlers, h)
	return HandlerID(len(k.handlers) - 1)
}

// Schedule enqueues a typed event: handler h fires at absolute time at with
// arguments (node, payload). This is the zero-allocation hot path.
// Scheduling in the past (before Now) panics, since it would break
// causality.
func (k *Kernel) Schedule(at Time, h HandlerID, node, payload int32) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, k.now))
	}
	if h < 0 || int(h) >= len(k.handlers) {
		panic(fmt.Sprintf("sim: unregistered handler id %d", h))
	}
	k.seq++
	k.qpush(record{at: at, seq: k.seq, h: h, node: node, payload: payload})
	k.live++
}

// ScheduleAfter enqueues a typed event after delay d (>= 0) from now.
func (k *Kernel) ScheduleAfter(d time.Duration, h HandlerID, node, payload int32) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.Schedule(k.now.Add(d), h, node, payload)
}

// At schedules fn at absolute time at; scheduling in the past (before Now)
// panics, since it would break causality. It returns a handle that can
// cancel the event.
func (k *Kernel) At(at Time, fn func()) *Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, k.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	slot := k.allocSlot(fn)
	gen := k.slots[slot].gen
	k.seq++
	k.qpush(record{at: at, seq: k.seq, h: closureHandler, node: slot, gen: gen})
	k.live++
	return &Event{k: k, slot: slot, gen: gen}
}

// After schedules fn after delay d (>= 0) from now.
func (k *Kernel) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now.Add(d), fn)
}

// Every schedules fn at absolute time start and then repeatedly every
// interval for as long as fn returns true. It is the shared driver of
// recurring activities that pace themselves off the simulated clock — the
// protocol runtime's gossip round ticks and the scenario engine's stall
// watcher both run on it. Each firing is an ordinary closure event, so
// other events scheduled at the same timestamp interleave in seq order,
// and the final false-returning call consumes its event and schedules
// nothing further (the kernel can drain).
func (k *Kernel) Every(start Time, interval time.Duration, fn func() bool) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick interval %v", interval))
	}
	if fn == nil {
		panic("sim: nil tick function")
	}
	var fire func()
	fire = func() {
		if !fn() {
			return
		}
		k.At(k.now.Add(interval), fire)
	}
	k.At(start, fire)
}

// Cancel removes a pending event; canceling an already-fired or canceled
// event is a no-op. It reports whether the event was pending. The queue
// record is invalidated in place (generation bump) and discarded when it
// surfaces, so Cancel is O(1).
func (k *Kernel) Cancel(e *Event) bool {
	if e == nil || e.k != k || k.slots[e.slot].gen != e.gen {
		return false
	}
	k.releaseSlot(e.slot)
	k.live--
	return true
}

// Pending returns the number of queued events, not counting canceled ones.
func (k *Kernel) Pending() int { return k.live }

// NextEventTime returns the timestamp of the earliest live pending event,
// or false if none is queued. The sharded runtime's window computation
// polls every shard kernel with it at each barrier.
func (k *Kernel) NextEventTime() (Time, bool) {
	k.dropCanceled()
	rec, ok := k.qpeek()
	if !ok {
		return 0, false
	}
	return rec.at, true
}

// Step fires the earliest pending event and returns true, or returns false
// if no live event is queued.
func (k *Kernel) Step() bool {
	for k.qlen() > 0 {
		rec := k.qpop()
		if rec.h == closureHandler {
			s := &k.slots[rec.node]
			if s.gen != rec.gen {
				continue // canceled; drop the stale record
			}
			fn := s.fn
			k.releaseSlot(rec.node)
			k.now = rec.at
			k.fired++
			k.live--
			fn()
			return true
		}
		k.now = rec.at
		k.fired++
		k.live--
		k.handlers[rec.h](rec.at, rec.node, rec.payload)
		return true
	}
	return false
}

// Run fires events until the queue is empty or the horizon is passed
// (events scheduled strictly after horizon remain queued; the clock is left
// at the later of its current value and the last fired event). It returns
// ErrBudget if the event budget is exhausted first.
func (k *Kernel) Run(horizon Time) error {
	for {
		k.dropCanceled()
		head, ok := k.qpeek()
		if !ok || head.at > horizon {
			return nil
		}
		if k.budget > 0 && k.fired >= k.budget {
			return ErrBudget
		}
		k.Step()
	}
}

// RunAll fires every event until the queue drains. It returns ErrBudget if
// the event budget is exhausted first.
func (k *Kernel) RunAll() error { return k.Run(End) }

// dropCanceled discards stale records at the top of the heap so the head,
// if any, is a live event.
func (k *Kernel) dropCanceled() {
	for {
		rec, ok := k.qpeek()
		if !ok || rec.h != closureHandler || k.slots[rec.node].gen == rec.gen {
			return
		}
		k.qpop()
	}
}

// ---------------------------------------------------------------------------
// Closure slot table

func (k *Kernel) allocSlot(fn func()) int32 {
	if n := len(k.freeSlots); n > 0 {
		idx := k.freeSlots[n-1]
		k.freeSlots = k.freeSlots[:n-1]
		k.slots[idx].fn = fn
		return idx
	}
	k.slots = append(k.slots, closureSlot{fn: fn})
	return int32(len(k.slots) - 1)
}

// releaseSlot invalidates and recycles a slot. The generation bump makes
// any queue record or Event handle still pointing at it permanently stale.
func (k *Kernel) releaseSlot(idx int32) {
	k.slots[idx].fn = nil
	k.slots[idx].gen++
	k.freeSlots = append(k.freeSlots, idx)
}

// ---------------------------------------------------------------------------
// Queue selection
//
// The kernel owns two queue disciplines over the same record type: the flat
// 4-ary heap below (general-purpose, O(log n)) and the CalendarQueue in
// calendar.go (amortized O(1) when event delays sit in a bounded band).
// Both fire records in exactly the same (at, seq) order — the equivalence
// tests lock them to one another — so which one is active is invisible to
// callers except in throughput.

// SetBoundedDelayHint tells the kernel that scheduling delays are expected
// to stay within max of the current time with around pending events queued
// at once, switching the event queue to the calendar (bucket) discipline
// sized for that band; max <= 0 reverts to the 4-ary heap. Both values are
// performance advice, not a contract: events scheduled beyond the band
// spill into the calendar's overflow heap and still fire in exact
// (at, seq) order, and the pending estimate only sizes the ring up to its
// fixed cache budget (a low estimate merely raises bucket occupancy until
// the ring grows itself under load). The hint only takes
// effect while the queue is empty (a non-empty queue leaves the discipline
// unchanged), and Reset reverts to the heap — re-hint after each Reset, as
// simnet's bounded latency models do automatically.
func (k *Kernel) SetBoundedDelayHint(max time.Duration, pending int) {
	if k.qlen() != 0 {
		return
	}
	if max <= 0 {
		k.useCal = false
		k.hint = 0
		return
	}
	if k.cal == nil {
		k.cal = NewCalendarQueue(max, pending)
	} else {
		k.cal.reconfigure(max, pending)
	}
	k.useCal = true
	k.hint = pending
}

// PendingHint reports the pending-events estimate of the delay hint in
// effect, or 0 while the kernel runs the heap.
func (k *Kernel) PendingHint() int { return k.hint }

// QueueKind reports which queue discipline is active: "calendar" or "heap".
func (k *Kernel) QueueKind() string {
	if k.useCal {
		return "calendar"
	}
	return "heap"
}

func (k *Kernel) qpush(rec record) {
	if k.useCal {
		k.cal.push(rec)
	} else {
		heapPush(&k.queue, rec)
	}
}

func (k *Kernel) qpop() record {
	if k.useCal {
		return k.cal.pop()
	}
	return heapPop(&k.queue)
}

func (k *Kernel) qpeek() (record, bool) {
	if k.useCal {
		return k.cal.peek()
	}
	if len(k.queue) == 0 {
		return record{}, false
	}
	return k.queue[0], true
}

func (k *Kernel) qlen() int {
	if k.useCal {
		return k.cal.len()
	}
	return len(k.queue)
}

// ---------------------------------------------------------------------------
// Flat 4-ary min-heap
//
// A 4-ary layout halves the tree depth of a binary heap: sift-down does
// more comparisons per level but far fewer cache-missing swaps, which wins
// on queues with 10⁵..10⁶ value-typed records. The functions operate on a
// plain record slice so the CalendarQueue can reuse them for its overflow
// heap.

const heapArity = 4

func heapPush(qp *[]record, rec record) {
	*qp = append(*qp, rec)
	heapSiftUp(*qp, len(*qp)-1)
}

func heapPop(qp *[]record) record {
	q := *qp
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	*qp = q[:last]
	if last > 0 {
		heapSiftDown(q[:last], 0)
	}
	return top
}

func heapSiftUp(q []record, i int) {
	rec := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !rec.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = rec
}

func heapSiftDown(q []record, i int) {
	n := len(q)
	rec := q[i]
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(q[min]) {
				min = c
			}
		}
		if !q[min].before(rec) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = rec
}
