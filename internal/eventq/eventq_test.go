package eventq

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestOrderingByTime(t *testing.T) {
	q := New()
	var got []int
	q.At(30*time.Millisecond, func(time.Duration) { got = append(got, 3) })
	q.At(10*time.Millisecond, func(time.Duration) { got = append(got, 1) })
	q.At(20*time.Millisecond, func(time.Duration) { got = append(got, 2) })
	end := q.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("final time = %v, want 30ms", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	q := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.At(time.Second, func(time.Duration) { got = append(got, i) })
	}
	q.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("got[%d] = %d; equal-timestamp events must run FIFO", i, got[i])
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	q := New()
	var fired time.Duration
	q.At(time.Second, func(now time.Duration) {
		q.After(500*time.Millisecond, func(now time.Duration) { fired = now })
	})
	q.Run()
	if fired != 1500*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 1.5s", fired)
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	q := New()
	var fired time.Duration
	q.At(time.Second, func(now time.Duration) {
		q.At(0, func(now time.Duration) { fired = now })
	})
	q.Run()
	if fired != time.Second {
		t.Fatalf("past event fired at %v, want clamped to 1s", fired)
	}
	if q.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", q.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	q := New()
	ran := 0
	q.At(time.Second, func(time.Duration) { ran++ })
	q.At(3*time.Second, func(time.Duration) { ran++ })
	q.RunUntil(2 * time.Second)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if q.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s (advanced to deadline)", q.Now())
	}
	if q.Len() != 1 {
		t.Fatalf("pending = %d, want 1", q.Len())
	}
	q.Run()
	if ran != 2 || q.Now() != 3*time.Second {
		t.Fatalf("after Run: ran=%d now=%v", ran, q.Now())
	}
}

func TestRunForIsRelative(t *testing.T) {
	q := New()
	q.At(time.Second, func(time.Duration) {})
	q.Run()
	q.At(1500*time.Millisecond, func(time.Duration) {})
	q.RunFor(time.Second) // until t=2s
	if q.Len() != 0 {
		t.Fatalf("event at 1.5s should have run inside RunFor window")
	}
	if q.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", q.Now())
	}
}

func TestStop(t *testing.T) {
	q := New()
	ran := 0
	q.At(time.Second, func(time.Duration) { ran++; q.Stop() })
	q.At(2*time.Second, func(time.Duration) { ran++ })
	q.Run()
	if ran != 1 {
		t.Fatalf("ran = %d after Stop, want 1", ran)
	}
	if q.Len() != 1 {
		t.Fatalf("pending = %d, want 1", q.Len())
	}
}

func TestProcessedCounter(t *testing.T) {
	q := New()
	for i := 0; i < 17; i++ {
		q.After(time.Duration(i)*time.Millisecond, func(time.Duration) {})
	}
	q.Run()
	if q.Processed() != 17 {
		t.Fatalf("Processed = %d, want 17", q.Processed())
	}
}

func TestStepOnEmpty(t *testing.T) {
	q := New()
	if q.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestSlabSlotsRecycled(t *testing.T) {
	// Steady-state schedule/run cycles must reuse slab slots instead of
	// growing the item store without bound.
	q := New()
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			q.After(time.Duration(i)*time.Millisecond, func(time.Duration) {})
		}
		q.Run()
	}
	if got := len(q.items); got > 200 {
		t.Fatalf("slab grew to %d slots for 100 concurrent events; free-list not recycling", got)
	}
}

func TestInterleavedScheduleAndStep(t *testing.T) {
	// Mixing Step with fresh scheduling exercises free-list churn while
	// the heap is non-empty; ordering must survive slot reuse.
	q := New()
	var got []int
	q.At(1*time.Millisecond, func(time.Duration) { got = append(got, 1) })
	q.At(3*time.Millisecond, func(time.Duration) { got = append(got, 3) })
	q.Step()
	q.At(2*time.Millisecond, func(time.Duration) { got = append(got, 2) })
	q.At(4*time.Millisecond, func(time.Duration) { got = append(got, 4) })
	q.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// BenchmarkQueue measures steady-state scheduling cost: the slab and
// free-list should make the amortized allocs/op ~0 (run with -benchmem).
func BenchmarkQueue(b *testing.B) {
	q := New()
	noop := func(time.Duration) {}
	// Warm the slab so the measured loop sees steady state.
	for i := 0; i < 1024; i++ {
		q.After(time.Duration(i%97)*time.Microsecond, noop)
	}
	q.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(time.Duration(i%97)*time.Microsecond, noop)
		if q.Len() >= 1024 {
			q.Run()
		}
	}
	q.Run()
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q := New()
		for j := 0; j < 1000; j++ {
			q.At(time.Duration(j%97)*time.Millisecond, func(time.Duration) {})
		}
		q.Run()
	}
}

func TestQuickTimeNeverRegresses(t *testing.T) {
	// Property: no matter the scheduling pattern, observed event times
	// are non-decreasing.
	f := func(delays []uint16) bool {
		q := New()
		var times []time.Duration
		for _, d := range delays {
			d := time.Duration(d) * time.Microsecond
			q.After(d, func(now time.Duration) {
				times = append(times, now)
				if len(times) < 50 { // nested re-scheduling
					q.After(d/2, func(now time.Duration) { times = append(times, now) })
				}
			})
		}
		q.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReleasesLargeSlabs(t *testing.T) {
	noop := func(time.Duration) {}

	// Small queue: slabs survive a full drain so schedule/Run cycles
	// stay regrow-free.
	q := New()
	for i := 0; i < 1024; i++ {
		q.After(time.Duration(i)*time.Microsecond, noop)
	}
	q.Run()
	if q.items == nil || q.free == nil {
		t.Fatalf("small drain released slabs: items=%v free=%v", q.items == nil, q.free == nil)
	}

	// Survey-sized queue: a full drain must drop the arrays — they are
	// the drained queue's entire residency.
	q = New()
	for i := 0; i <= releaseThreshold; i++ {
		q.After(time.Duration(i)*time.Microsecond, noop)
	}
	q.Run()
	if q.heap != nil || q.items != nil || q.free != nil {
		t.Fatalf("large drain kept slabs: heap=%d items=%d free=%d", cap(q.heap), cap(q.items), cap(q.free))
	}

	// Still usable after release.
	ran := false
	q.After(time.Microsecond, func(time.Duration) { ran = true })
	q.Run()
	if !ran {
		t.Fatal("queue unusable after slab release")
	}

	// A partial drain (Stop mid-run) must keep everything.
	q = New()
	for i := 0; i <= releaseThreshold; i++ {
		q.After(time.Duration(i)*time.Microsecond, noop)
	}
	q.After(0, func(time.Duration) { q.Stop() })
	q.Run()
	if q.items == nil {
		t.Fatal("partial drain released slabs with events still queued")
	}
}

// cursorArm names how runCursors arms each cursor's events.
type cursorArm int

const (
	armEager    cursorArm = iota // every event through At up front
	armReserved                  // Reserve up front, re-arm through AtSeq
	armPlainAt                   // re-arm through At: fresh numbers
)

// runCursors plays a set of cursors — each a non-decreasing run of
// instants, as a probe schedule is — and returns the order their events
// ran in. Some events schedule a run-time At event 0–2 ms ahead, on
// the same millisecond grid, so run-time events land on instants
// cursor events also hold. Cursor event (c, j) logs c*100+j; the
// run-time event it schedules logs -(c*100+j+1).
func runCursors(times [][]time.Duration, arm cursorArm) []int {
	q := New()
	var log []int
	first := make([]uint64, len(times))
	var event func(c, j int) Event
	event = func(c, j int) Event {
		return func(now time.Duration) {
			id := c*100 + j
			log = append(log, id)
			if (c*7+j)%3 == 0 {
				q.After(time.Duration(j%3)*time.Millisecond, func(time.Duration) { log = append(log, -(id + 1)) })
			}
			if j+1 == len(times[c]) {
				return
			}
			switch arm {
			case armReserved:
				q.AtSeq(times[c][j+1], first[c]+uint64(j+1), event(c, j+1))
			case armPlainAt:
				q.At(times[c][j+1], event(c, j+1))
			}
		}
	}
	for c, ts := range times {
		switch arm {
		case armEager:
			for j, at := range ts {
				q.At(at, event(c, j))
			}
		case armReserved:
			first[c] = q.Reserve(len(ts))
			q.AtSeq(ts[0], first[c], event(c, 0))
		case armPlainAt:
			q.At(ts[0], event(c, 0))
		}
	}
	q.Run()
	return log
}

// TestReservedSeqMatchesEagerOrder is the differential pin for lazy
// scheduling: cursors that hold one pending event each and re-arm
// under reserved numbers run every event in the order eager At
// scheduling gives, ties and run-time events included. Re-arming
// through plain At on the same scenario must diverge, which shows the
// scenario has the ties that make the reservation necessary.
func TestReservedSeqMatchesEagerOrder(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	draw := func(n uint64) uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	times := make([][]time.Duration, 60)
	events := 0
	for c := range times {
		at := time.Duration(draw(5)) * time.Millisecond
		for j := 0; j < 1+int(draw(12)); j++ {
			times[c] = append(times[c], at)
			at += time.Duration(draw(3)) * time.Millisecond // 0 ties within the cursor
			events++
		}
	}

	eager := runCursors(times, armEager)
	if len(eager) <= events {
		t.Fatalf("%d events logged for %d cursor events: no run-time events", len(eager), events)
	}
	if got := runCursors(times, armReserved); !slices.Equal(got, eager) {
		i := 0
		for i < len(got) && i < len(eager) && got[i] == eager[i] {
			i++
		}
		t.Fatalf("reserved re-arming diverges from eager order at event %d of %d: %v vs %v",
			i, len(eager), got[i:min(i+5, len(got))], eager[i:min(i+5, len(eager))])
	}
	if got := runCursors(times, armPlainAt); slices.Equal(got, eager) {
		t.Fatal("plain At re-arming matched eager order: the scenario lacks the ties it is meant to test")
	}
}
