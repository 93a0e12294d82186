package sim

import (
	"math/bits"
	"slices"
	"time"
)

// CalendarQueue is a bucket ("calendar") event queue specialized for the
// workload the simulated network generates: almost every event is scheduled
// within a bounded delay band of the current time (the latency model's
// upper bound). Simulated time is divided into fixed-width buckets; pushing
// appends the event, unsorted, to its bucket — a chain of small record
// segments drawn from one shared pool — and a bucket is sorted once, when
// the queue's cursor reaches it and drains it into the contiguous
// current-bucket scratch it pops from.
//
// The ring has a fixed cache budget, not one slot per pending event: its
// slots plus the tail segment each slot is filling — the memory every push
// and every cursor step touches — fit calendarRingBytes whatever the group
// size, so they stay resident in a core's L2. The bucket width follows
// from the delay bound and the ring size. A deep queue therefore means
// coarse buckets of tens to hundreds of records, which sortBucket orders
// by splitting them into fine sub-buckets on drain (ladder-queue style).
//
// Events beyond the bucket window (scenario actions scheduled seconds
// ahead, closure timers) spill into an overflow 4-ary heap and migrate into
// buckets as the window slides forward, so the queue is correct for
// arbitrary timestamps; the delay bound is purely a sizing hint. Fire order
// is exactly the kernel's (at, seq) order — the equivalence tests lock the
// calendar to the heap discipline trace for trace.
//
// Every piece of storage — the ring, the segment pool, the drain scratch,
// the overflow heap — is retained across Reset and shared across buckets,
// so occupancy can shift between buckets run over run without ever
// allocating: a warm arena runs with zero allocations per execution. The
// zero value is not usable; a Kernel builds one via SetBoundedDelayHint and
// recycles it.
type CalendarQueue struct {
	widthShift uint        // bucket width = 1<<widthShift nanoseconds
	buckets    []calBucket // ring: segment-chain endpoints per slot
	mask       int64       // nb-1 (nb is a power of two)
	count      int         // records in buckets + the current-bucket scratch
	base       int64       // absolute bucket number anchoring the window [base, base+nb)
	firstHint  int64       // no bucket record lives in absolute buckets [base, firstHint)
	overflow   []record    // 4-ary min-heap of records at or beyond the window end

	segs    []calSegment // shared segment pool; free segments chain through freeSeg
	freeSeg int32
	cur     []record // the bucket being drained, sorted descending (pop truncates)
	curAbs  int64    // absolute bucket cur holds, -1 iff cur is empty
	split   []int32  // drain scratch: per-sub-bucket counts, then slots
	spill   []record // grow/rebase scratch: one bucket's records
}

// calBucket addresses one ring slot's unsorted segment chain and counts
// its records. Every segment but the tail is full, so the count also
// locates the next free record: a push reads the slot alone, never the
// tail segment it stores into.
type calBucket struct{ head, tail, n int32 }

var emptyBucket = calBucket{head: -1, tail: -1}

// calSegRecords records per segment (a power of two): 8×32-byte records
// is four cache lines gathered per hop, against one record per hop for a
// plain linked list.
const calSegRecords = 8

type calSegment struct {
	next int32
	recs [calSegRecords]record
}

// segLen returns how many records segment s of bucket b holds.
func (b calBucket) segLen(s int32) int {
	if s != b.tail {
		return calSegRecords
	}
	return int(b.n-1)&(calSegRecords-1) + 1
}

const (
	// calendarRingBytes is the ring's cache budget: its slots plus one
	// tail segment per slot, half of a 2 MiB L2, leaving the other half
	// to the records being drained and the run's own state. The ring never
	// outgrows it, whatever the pending-events hint.
	calendarRingBytes = 1 << 20
	// calendarMaxBuckets is the largest power-of-two ring within the
	// budget: 2¹¹ slots of 12 + 264 bytes, ~552 KiB
	// (TestCalendarRingFootprintBounded pins the arithmetic). With a
	// 10 ms delay bound that makes 8 µs buckets.
	calendarMaxBuckets  = 1 << 11
	calendarInitBuckets = 256
	// calendarGrowAt doubles the ring when mean occupancy exceeds this
	// load factor — a fallback for callers whose pending-events hint
	// turned out far too low. At calendarMaxBuckets occupancy grows
	// instead, which the drain's split absorbs.
	calendarGrowAt = 8
	// calSplitMaxBits caps a drained bucket's split at 2¹² sub-buckets
	// (a 16 KiB count table).
	calSplitMaxBits = 12
)

// NewCalendarQueue returns an empty calendar sized for the given delay
// bound and expected pending-event count.
func NewCalendarQueue(bound time.Duration, pending int) *CalendarQueue {
	c := &CalendarQueue{}
	c.reconfigure(bound, pending)
	return c
}

// reconfigure empties the queue and re-derives the ring size and bucket
// width for a new delay bound and pending-count hint, keeping (or growing)
// the ring so a run-scoped arena reuses warm capacity. A small hint gets a
// small ring (cheap to sweep and to clear); any hint past the cache budget
// gets the budget. Only valid while the queue is empty or being reset.
func (c *CalendarQueue) reconfigure(bound time.Duration, pending int) {
	nb := calendarInitBuckets
	for nb < pending && nb < calendarMaxBuckets {
		nb <<= 1
	}
	if nb > len(c.buckets) {
		c.buckets = make([]calBucket, nb)
	}
	c.mask = int64(len(c.buckets) - 1)
	c.clear()
	// Smallest width such that the window nb<<shift covers the bound with
	// a 25% margin, so steady-state pushes never touch the overflow heap.
	span := int64(bound) + int64(bound)/4
	want := (span + int64(len(c.buckets)) - 1) / int64(len(c.buckets))
	c.widthShift = 0
	if want > 1 {
		c.widthShift = uint(bits.Len64(uint64(want - 1)))
	}
}

// clear empties the queue in place, retaining ring, pool, and scratch
// capacity.
func (c *CalendarQueue) clear() {
	for i := range c.buckets {
		c.buckets[i] = emptyBucket
	}
	c.count = 0
	c.base = 0
	c.firstHint = 0
	c.overflow = c.overflow[:0]
	c.segs = c.segs[:0]
	c.freeSeg = -1
	c.cur = c.cur[:0]
	c.curAbs = -1
}

func (c *CalendarQueue) len() int { return c.count + len(c.overflow) }

func (c *CalendarQueue) absBucket(at Time) int64 { return int64(at) >> c.widthShift }

func (c *CalendarQueue) allocSeg() int32 {
	if c.freeSeg >= 0 {
		i := c.freeSeg
		c.freeSeg = c.segs[i].next
		c.segs[i].next = -1
		return i
	}
	c.segs = append(c.segs, calSegment{next: -1})
	return int32(len(c.segs) - 1)
}

// appendRec appends rec to ring slot ring's segment chain (unsorted).
func (c *CalendarQueue) appendRec(ring int64, rec record) {
	b := &c.buckets[ring]
	i := b.n & (calSegRecords - 1)
	if b.n == 0 {
		s := c.allocSeg()
		b.head, b.tail = s, s
	} else if i == 0 {
		s := c.allocSeg()
		c.segs[b.tail].next = s
		b.tail = s
	}
	c.segs[b.tail].recs[i] = rec
	b.n++
}

// unchain returns bucket b's records in chain order, in the spill
// scratch, and its segments to the pool.
func (c *CalendarQueue) unchain(b calBucket) []record {
	c.spill = c.spill[:0]
	for s := b.head; s >= 0; {
		seg := &c.segs[s]
		c.spill = append(c.spill, seg.recs[:b.segLen(s)]...)
		next := seg.next
		seg.next = c.freeSeg
		c.freeSeg = s
		s = next
	}
	return c.spill
}

// push enqueues rec: appended to its bucket when its timestamp falls inside
// the current window, into the overflow heap beyond it. A record below the
// window start re-anchors the window first (see rebase).
func (c *CalendarQueue) push(rec record) {
	abs := c.absBucket(rec.at)
	if abs < c.base {
		c.rebase(abs)
	}
	if abs >= c.base+c.mask+1 {
		heapPush(&c.overflow, rec)
		return
	}
	c.insert(rec)
	if c.count > calendarGrowAt*len(c.buckets) && len(c.buckets) < calendarMaxBuckets {
		c.grow()
	}
}

// insert places rec, already known to land inside the window: a sorted
// insert into the current-bucket scratch when it lands on the bucket being
// drained (so it still fires in exact order), a plain segment append
// otherwise. A record landing below the bucket being drained sends the
// scratch back to its segments first — only the horizon/cancel pattern
// triggers that, never the steady state.
func (c *CalendarQueue) insert(rec record) {
	abs := c.absBucket(rec.at)
	if abs == c.curAbs {
		// Keep descending fire order: bubble the record from the tail
		// past everything that fires after it. The bubble is capped —
		// a record that outranks most of the scratch would make bulk
		// same-bucket insertion quadratic (a sharded barrier flush under
		// constant latency lands a whole wave on one timestamp, every
		// new seq firing after all its ties), so past maxBubble steps
		// the scratch goes back to its segments and the record is
		// appended; ready() re-sorts the bucket once instead.
		const maxBubble = 64
		if n := len(c.cur); n >= maxBubble && c.cur[n-maxBubble].before(rec) {
			c.flushCur()
			c.appendRec(abs&c.mask, rec)
		} else {
			c.cur = append(c.cur, rec)
			i := len(c.cur) - 1
			for i > 0 && c.cur[i-1].before(rec) {
				c.cur[i] = c.cur[i-1]
				i--
			}
			c.cur[i] = rec
		}
	} else {
		if c.curAbs >= 0 && abs < c.curAbs {
			c.flushCur()
		}
		c.appendRec(abs&c.mask, rec)
	}
	c.count++
	if abs < c.firstHint {
		c.firstHint = abs
	}
}

// flushCur returns the current-bucket scratch's records to their ring
// slot's segments in fire order, surrendering "being drained" status.
// Writing them back ascending keeps the chain in seq order across each
// timestamp, which is what lets sortBucket leave ties where they land.
func (c *CalendarQueue) flushCur() {
	ring := c.curAbs & c.mask
	for i := len(c.cur) - 1; i >= 0; i-- {
		c.appendRec(ring, c.cur[i])
	}
	c.cur = c.cur[:0]
	c.curAbs = -1
}

// ready ensures the current-bucket scratch holds the earliest non-empty
// bucket, sorted. Callers guarantee count > 0.
func (c *CalendarQueue) ready() {
	if c.curAbs >= 0 && c.firstHint == c.curAbs {
		return
	}
	if c.curAbs >= 0 {
		// A record landed below the bucket being drained; put the
		// scratch back and gather the earlier bucket instead.
		c.flushCur()
	}
	// Scan to the first non-empty bucket. All stored records sit in
	// [firstHint, base+nb), so the scan is bounded and each empty bucket
	// is skipped at most once per window pass.
	for c.buckets[c.firstHint&c.mask].n == 0 {
		c.firstHint++
	}
	ring := c.firstHint & c.mask
	b := c.buckets[ring]
	c.buckets[ring] = emptyBucket
	c.sortBucket(b, Time(c.firstHint<<c.widthShift))
	c.curAbs = c.firstHint
}

// sortBucket moves bucket b, whose records lie in [start, start+width),
// into the scratch sorted descending by fire order (the record that fires
// first ends up last, so pop is a truncation), and returns its segments to
// the pool.
//
// The bucket is split into 2^m fine sub-buckets by time offset, m chosen
// so there are about as many sub-buckets as records: one pass over the
// chain counts each sub-bucket, a second scatters every record straight
// into its sub-bucket's slots of the scratch, and sortDesc orders records
// that share a sub-bucket — usually none, at one compare per record.
// Records on one timestamp share a sub-bucket and scatter in chain order,
// which is seq order (pushes append in seq order, and flushCur writes back
// ascending), so ties need no moves. Each record is copied once.
func (c *CalendarQueue) sortBucket(b calBucket, start Time) {
	k := int(b.n)
	c.cur = slices.Grow(c.cur[:0], k)[:k]
	dst := c.cur
	if b.head == b.tail {
		// One segment — the common case for small groups, whose rings
		// hold a record or two per bucket: reversing it and letting
		// sortDesc order a handful of records beats any split.
		seg := &c.segs[b.head]
		for i, rec := range seg.recs[:k] {
			dst[k-1-i] = rec
		}
		seg.next = c.freeSeg
		c.freeSeg = b.head
		sortDesc(dst)
		return
	}
	m := min(uint(bits.Len(uint(k))), calSplitMaxBits, c.widthShift)
	shift := c.widthShift - m
	c.split = slices.Grow(c.split[:0], 1<<m+1)[:1<<m+1]
	split := c.split
	clear(split)
	for s := b.head; s >= 0; s = c.segs[s].next {
		for _, rec := range c.segs[s].recs[:b.segLen(s)] {
			split[uint64(rec.at-start)>>shift+1]++
		}
	}
	for j := 1; j < len(split); j++ {
		split[j] += split[j-1]
	}
	for s := b.head; s >= 0; {
		seg := &c.segs[s]
		for _, rec := range seg.recs[:b.segLen(s)] {
			j := uint64(rec.at-start) >> shift
			dst[k-1-int(split[j])] = rec
			split[j]++
		}
		next := seg.next
		seg.next = c.freeSeg
		c.freeSeg = s
		s = next
	}
	sortDesc(dst)
}

// sortDesc sorts b descending by fire order. Insertion sort is linear on
// the nearly sorted input sortBucket leaves; past a budget of moves the
// input is far from sorted (a bucket much wider than the spread of its
// records, with more records than the split has sub-buckets) and heapsort
// finishes in O(k log k).
func sortDesc(b []record) {
	budget := 4*len(b) + 64
	for i := 1; i < len(b); i++ {
		rec := b[i]
		j := i
		for j > 0 && b[j-1].before(rec) {
			b[j] = b[j-1]
			j--
		}
		b[j] = rec
		if budget -= i - j; budget < 0 {
			heapSortDesc(b)
			return
		}
	}
}

// heapSortDesc sorts b descending by fire order in place with the
// overflow heap's primitives: the min-heap's root fires first, and each
// pass moves it behind the shrinking heap.
func heapSortDesc(b []record) {
	for i := (len(b) - 2) / heapArity; i >= 0; i-- {
		heapSiftDown(b, i)
	}
	for end := len(b) - 1; end > 0; end-- {
		b[0], b[end] = b[end], b[0]
		heapSiftDown(b[:end], 0)
	}
}

// drain migrates overflow records whose buckets have entered the window.
func (c *CalendarQueue) drain() {
	end := c.base + c.mask + 1
	for len(c.overflow) > 0 && c.absBucket(c.overflow[0].at) < end {
		c.insert(heapPop(&c.overflow))
	}
}

// grow doubles the ring. When the bucket width can still shrink, it is
// halved so the window length is preserved and mean occupancy truly halves;
// each old bucket's records split across two new buckets with their
// relative order intact, recycling segments as they are consumed.
func (c *CalendarQueue) grow() {
	if c.curAbs >= 0 {
		c.flushCur()
	}
	old := c.buckets
	c.buckets = make([]calBucket, 2*len(old))
	for i := range c.buckets {
		c.buckets[i] = emptyBucket
	}
	c.mask = int64(len(c.buckets) - 1)
	if c.widthShift > 0 {
		c.widthShift--
		c.base <<= 1
		c.firstHint <<= 1
	}
	c.count = 0
	for _, b := range old {
		for _, rec := range c.unchain(b) {
			c.insert(rec)
		}
	}
	// The window end moved; pull in any overflow records it now covers so
	// the bucket-min-before-overflow-min invariant keeps holding.
	c.drain()
}

// rebase re-anchors the window at a lower start. Popping slides the window
// to the bucket being drained, which can run ahead of the kernel clock when
// a canceled record beyond a Run horizon is discarded; a later push between
// the clock and that bucket then lands below the window and must not alias
// into a ring slot owned by a later bucket. Re-anchoring keeps in-window
// records where they are (their ring slots stay valid) and spills the ones
// the shorter reach no longer covers into the overflow heap, where the
// sliding window will re-admit them in order. This only triggers on the
// horizon/cancel pattern — scenario-rate, never the steady-state hot path.
func (c *CalendarQueue) rebase(abs int64) {
	if c.curAbs >= 0 {
		c.flushCur()
	}
	end := abs + c.mask + 1
	if c.count > 0 {
		for ring, b := range c.buckets {
			if b.n == 0 || c.absBucket(c.segs[b.head].recs[0].at) < end {
				continue
			}
			for _, rec := range c.unchain(b) {
				heapPush(&c.overflow, rec)
			}
			c.count -= int(b.n)
			c.buckets[ring] = emptyBucket
		}
	}
	c.base = abs
	c.firstHint = abs
}

// peek returns the earliest record without removing it.
func (c *CalendarQueue) peek() (record, bool) {
	if c.count == 0 {
		if len(c.overflow) == 0 {
			return record{}, false
		}
		return c.overflow[0], true
	}
	c.ready()
	return c.cur[len(c.cur)-1], true
}

// pop removes and returns the earliest record. It must only be called when
// len() > 0.
func (c *CalendarQueue) pop() record {
	if c.count == 0 {
		// Buckets are dry: re-anchor the window at the overflow's
		// earliest bucket and migrate everything the window now spans.
		c.base = c.absBucket(c.overflow[0].at)
		c.firstHint = c.base
		c.drain()
	}
	c.ready()
	// Slide the window forward to the bucket being drained, then admit
	// overflow records the longer reach now covers — before selecting, so
	// a migrated record landing in this very bucket fires in exact order.
	if c.firstHint > c.base {
		c.base = c.firstHint
		c.drain()
	}
	n := len(c.cur)
	rec := c.cur[n-1]
	c.cur = c.cur[:n-1]
	if n == 1 {
		c.curAbs = -1
	}
	c.count--
	return rec
}
