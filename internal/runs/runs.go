// Package runs is the deterministic k-way merge core of the survey's
// result path. A "run" is a canonically sorted sequence of observations
// — one shard's hits or partials, sealed by scanner.SealRuns. Merging
// runs with a stable run-index tie-break reproduces, byte for byte,
// what a stable sort of the runs' concatenation (in run order) would
// produce: equal items come out in run order, and items within a run
// stay in run order. That equivalence is what lets the campaign runner
// merge the shards' sealed runs into Result.Scanner's buffers
// (MergeSlices) instead of concatenating and re-sorting them. It holds
// under any contiguous grouping of the runs, so nested Mergers are
// byte-identical to a flat one — the associativity property pinned by
// this package's tests, on which perfbench's traced replay relies when
// it pre-merges its spilled run files.
package runs

// Source yields the items of one sorted run in order. Next returns the
// next item, or ok=false when the run is exhausted (or failed — check
// Err). Sources are single-pass.
type Source[T any] interface {
	Next() (T, bool)
	Err() error
}

// SliceSource adapts an in-memory sorted run to a Source.
type SliceSource[T any] struct {
	Run []T
	pos int
}

// Next implements Source.
func (s *SliceSource[T]) Next() (T, bool) {
	if s.pos >= len(s.Run) {
		var zero T
		return zero, false
	}
	v := s.Run[s.pos]
	s.pos++
	return v, true
}

// Err implements Source (a slice never fails).
func (s *SliceSource[T]) Err() error { return nil }

// Merger drains several sorted sources as one sorted stream, stable by
// source index: among equal heads the lowest-index source wins, and a
// source's own order is preserved. A Merger is itself a Source, so
// mergers compose into hierarchies.
type Merger[T any] struct {
	less  func(a, b *T) bool
	srcs  []Source[T]
	heads []T
	// heap holds source indices ordered by (head, source index); heads
	// and srcs are parallel arrays indexed by the heap's entries.
	heap []int
	err  error
}

// NewMerger builds a Merger over the sources, in tie-break order. less
// must be a strict weak ordering consistent with how the runs were
// sorted.
func NewMerger[T any](less func(a, b *T) bool, srcs ...Source[T]) *Merger[T] {
	m := &Merger[T]{
		less:  less,
		srcs:  srcs,
		heads: make([]T, len(srcs)),
		heap:  make([]int, 0, len(srcs)),
	}
	for i, s := range srcs {
		v, ok := s.Next()
		if !ok {
			m.noteErr(s.Err())
			continue
		}
		m.heads[i] = v
		m.heap = append(m.heap, i)
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

func (m *Merger[T]) noteErr(err error) {
	if err != nil && m.err == nil {
		m.err = err
	}
}

// before orders heap entries: by head item, then by source index, so
// equal heads drain in source order.
func (m *Merger[T]) before(i, j int) bool {
	a, b := m.heap[i], m.heap[j]
	if m.less(&m.heads[a], &m.heads[b]) {
		return true
	}
	if m.less(&m.heads[b], &m.heads[a]) {
		return false
	}
	return a < b
}

func (m *Merger[T]) siftDown(i int) {
	n := len(m.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && m.before(l, least) {
			least = l
		}
		if r < n && m.before(r, least) {
			least = r
		}
		if least == i {
			return
		}
		m.heap[i], m.heap[least] = m.heap[least], m.heap[i]
		i = least
	}
}

// Next implements Source: pop the least head, refill from its source.
//
//doors:hotpath
func (m *Merger[T]) Next() (T, bool) {
	if len(m.heap) == 0 {
		var zero T
		return zero, false
	}
	top := m.heap[0]
	v := m.heads[top]
	//lint:allow hotalloc -- Source is the run-cursor seam (slice, nested Merger, or perfbench's run-file reader); the dynamic call allocates nothing on the slice and merger paths the engine drains
	nv, ok := m.srcs[top].Next()
	if ok {
		m.heads[top] = nv
	} else {
		//lint:allow hotalloc -- drain-time Err check, once per source per merge, same dynamic seam as Next above
		m.noteErr(m.srcs[top].Err())
		var zero T
		m.heads[top] = zero // release the drained head's references
		n := len(m.heap) - 1
		m.heap[0] = m.heap[n]
		m.heap = m.heap[:n]
	}
	m.siftDown(0)
	return v, true
}

// Err returns the first source error encountered.
func (m *Merger[T]) Err() error { return m.err }

// MergeSlices merges sorted in-memory runs into dst (normally
// preallocated to the summed run length), stable by run index. A single
// run is appended as-is.
func MergeSlices[T any](dst []T, less func(a, b *T) bool, rs ...[]T) []T {
	live := make([][]T, 0, len(rs))
	for _, r := range rs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return dst
	case 1:
		return append(dst, live[0]...)
	}
	srcs := make([]Source[T], len(live))
	for i, r := range live {
		srcs[i] = &SliceSource[T]{Run: r}
	}
	m := NewMerger(less, srcs...)
	for {
		v, ok := m.Next()
		if !ok {
			return dst
		}
		dst = append(dst, v)
	}
}
