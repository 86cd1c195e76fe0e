// Package eventq is a fixture stub whose import path suffix matches
// the real event queue, so hotalloc's auto-mark table puts the proof
// obligation on Queue.At and Queue.After without any //doors:hotpath
// marker in the source. The stub declares no Queue.AtSeq or Queue.Step,
// so their table entries are reported as stale.
package eventq // want `stale autoHotPath entry "Queue\.AtSeq" for internal/eventq: no function of that name in this package` `stale autoHotPath entry "Queue\.Step" for internal/eventq`

// Queue mimics the real queue's shape.
type Queue struct {
	items []int
	tmp   []int
	n     int
}

// At allocates, so the auto-marked obligation fails.
func (q *Queue) At(x int) { // want `hot-path function Queue\.At \(auto-marked hot path\) must be allocation-free, but allocates \(unbounded\): eventq\.Queue\.At: make allocates`
	q.tmp = make([]int, x)
}

// After self-appends: amortized, auto-marked, clean.
func (q *Queue) After(x int) { // want After:`never`
	q.items = append(q.items, x)
}

// Unmarked is not in the auto-mark table: it may allocate freely.
func (q *Queue) Unmarked() []int { // want Unmarked:`unbounded`
	return make([]int, q.n)
}
