// Package eventq implements the discrete-event scheduler that drives the
// simulated Internet. All simulation time is virtual: a Queue holds a
// monotonically non-decreasing clock that advances only when events run.
//
// Determinism is a design requirement. Events scheduled for the same
// instant run in the order they were scheduled (FIFO among equal
// timestamps), so a seeded simulation always produces identical results.
// An event armed with AtSeq takes its place in that order from the
// moment Reserve claimed its number, not from when it was armed.
//
// The queue is the hottest structure in a survey run: every packet hop
// costs at least one event. It is therefore a hand-rolled binary heap of
// slab indices over value-typed items with a free-list, rather than
// container/heap over []*item — scheduling in steady state allocates
// nothing (the slab and free-list amortize to zero) and avoids the
// interface boxing container/heap imposes on every Push/Pop.
package eventq

import "time"

// Event is a callback scheduled to run at a virtual instant.
type Event func(now time.Duration)

type item struct {
	at  time.Duration
	seq uint64 // tie-break: schedule order
	fn  Event
}

// Queue is a virtual-time event queue. The zero value is ready to use.
// Queue is not safe for concurrent use; each simulation shard is
// single-threaded by design (determinism within a shard, parallelism
// across shards).
type Queue struct {
	now     time.Duration
	seq     uint64
	heap    []uint32 // binary heap of indices into items
	items   []item   // slab; slots recycled through free
	free    []uint32 // recycled slab slots
	stopped bool
	ran     uint64
}

// New returns an empty queue with the clock at zero.
func New() *Queue { return &Queue{} }

// Now reports the current virtual time.
func (q *Queue) Now() time.Duration { return q.now }

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Processed reports how many events have run so far.
func (q *Queue) Processed() uint64 { return q.ran }

func (q *Queue) less(i, j uint32) bool {
	a, b := &q.items[i], &q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *Queue) siftUp(i int) {
	h := q.heap
	idx := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(idx, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = idx
}

func (q *Queue) siftDown(i int) {
	h := q.heap
	n := len(h)
	idx := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.less(h[r], h[child]) {
			child = r
		}
		if !q.less(h[child], idx) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = idx
}

// At schedules fn to run at virtual time at, under the next
// schedule-order number. Scheduling in the past is a programming error;
// such events are clamped to run "now" so the clock never moves
// backward.
//
//doors:hotpath
func (q *Queue) At(at time.Duration, fn Event) {
	q.seq++
	q.AtSeq(at, q.seq, fn)
}

// Reserve claims the next n schedule-order numbers, which At will not
// hand out, and returns the first of them.
func (q *Queue) Reserve(n int) uint64 {
	first := q.seq + 1
	q.seq += uint64(n)
	return first
}

// AtSeq schedules fn to run at virtual time at under seq, one of the
// numbers Reserve claimed, each used once. An event armed late under a
// reserved number runs exactly where it would have run had At
// scheduled it when the number was reserved, ties included — as long
// as it is armed before its turn comes. Past times clamp as in At.
//
//doors:hotpath
func (q *Queue) AtSeq(at time.Duration, seq uint64, fn Event) {
	if at < q.now {
		at = q.now
	}
	var idx uint32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
		q.items[idx] = item{at: at, seq: seq, fn: fn}
	} else {
		idx = uint32(len(q.items))
		q.items = append(q.items, item{at: at, seq: seq, fn: fn})
	}
	q.heap = append(q.heap, idx)
	q.siftUp(len(q.heap) - 1)
}

// After schedules fn to run d after the current virtual time.
//
//doors:hotpath
func (q *Queue) After(d time.Duration, fn Event) {
	if d < 0 {
		d = 0
	}
	q.At(q.now+d, fn)
}

// Stop makes Run return after the currently executing event, leaving any
// remaining events queued.
func (q *Queue) Stop() { q.stopped = true }

// Step runs the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event ran.
//
//doors:hotpath
func (q *Queue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	idx := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.siftDown(0)
	}
	it := &q.items[idx]
	at, fn := it.at, it.fn
	it.fn = nil // release the closure while the slot waits on the free-list
	q.free = append(q.free, idx)
	q.now = at
	q.ran++
	//lint:allow hotalloc -- dispatching the event IS the queue's job; what the callback allocates is charged to its owner, not the queue
	fn(q.now)
	return true
}

// releaseThreshold is the slab size (in items) above which a full drain
// releases the queue's arrays. Below it the arrays are kept for reuse:
// a caller cycling schedule/Run on a small queue would otherwise pay a
// regrow on every cycle for a residency win measured in kilobytes.
// Above it the slab is survey-sized — it was grown by the shard's peak
// outstanding-event count and is the drained queue's entire residency.
const releaseThreshold = 1 << 16

// Run processes events until the queue drains or Stop is called. It
// returns the final virtual time. A full drain of a large queue
// releases the slab, heap and free-list arrays: they are sized by the
// simulation's peak outstanding-event count, and between Net.Run
// returning and the shard's world dying (partition under the streaming
// engines, the whole Result lifetime under the retained one) they would
// otherwise be the queue's entire residency. The queue stays usable —
// scheduling after a drain regrows from empty.
func (q *Queue) Run() time.Duration {
	q.stopped = false
	for !q.stopped && q.Step() {
	}
	if len(q.heap) == 0 && cap(q.items) > releaseThreshold {
		q.heap, q.items, q.free = nil, nil, nil
	}
	return q.now
}

// RunUntil processes events with timestamps <= deadline, then advances the
// clock to deadline (if it is beyond the last event run). Events after the
// deadline stay queued.
func (q *Queue) RunUntil(deadline time.Duration) time.Duration {
	q.stopped = false
	for !q.stopped && len(q.heap) > 0 && q.items[q.heap[0]].at <= deadline {
		q.Step()
	}
	if q.now < deadline {
		q.now = deadline
	}
	return q.now
}

// RunFor processes events for d of virtual time from the current instant.
func (q *Queue) RunFor(d time.Duration) time.Duration {
	return q.RunUntil(q.now + d)
}
