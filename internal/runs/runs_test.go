package runs

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// item tags a value with its origin so stability is observable: two
// items with equal key compare equal but remain distinguishable.
type item struct {
	key    int
	run    int
	serial int
}

func lessItem(a, b *item) bool { return a.key < b.key }

// reference reproduces what the pre-refactor merge did: concatenate the
// runs in order, then stable-sort. The merge core must match it byte
// for byte.
func reference(rs [][]item) []item {
	var all []item
	for _, r := range rs {
		all = append(all, r...)
	}
	sort.SliceStable(all, func(i, j int) bool { return lessItem(&all[i], &all[j]) })
	return all
}

// randomRuns builds sorted runs with heavy key collisions so the
// tie-break is exercised constantly.
func randomRuns(rng *rand.Rand, nruns, maxLen, keySpace int) [][]item {
	rs := make([][]item, nruns)
	for k := range rs {
		n := rng.Intn(maxLen + 1)
		r := make([]item, n)
		for i := range r {
			r[i] = item{key: rng.Intn(keySpace), run: k, serial: i}
		}
		sort.SliceStable(r, func(i, j int) bool { return lessItem(&r[i], &r[j]) })
		rs[k] = r
	}
	return rs
}

func TestMergeSlicesMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rs := randomRuns(rng, 1+rng.Intn(9), 20, 5)
		want := reference(rs)
		got := MergeSlices(make([]item, 0, len(want)), lessItem, rs...)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merge diverged from stable sort\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestMergerComposes nests Mergers as Sources: a two-level tree over
// contiguous groups must equal the flat merge.
func TestMergerComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		rs := randomRuns(rng, 6, 12, 3)
		want := reference(rs)

		group := func(lo, hi int) Source[item] {
			srcs := make([]Source[item], 0, hi-lo)
			for _, r := range rs[lo:hi] {
				srcs = append(srcs, &SliceSource[item]{Run: r})
			}
			return NewMerger(lessItem, srcs...)
		}
		top := NewMerger(lessItem, group(0, 2), group(2, 4), group(4, 6))
		var got []item
		for {
			v, ok := top.Next()
			if !ok {
				break
			}
			got = append(got, v)
		}
		if top.Err() != nil {
			t.Fatalf("unexpected err: %v", top.Err())
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d: composed merge diverged\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestMergeSlicesEmptyAndSingle(t *testing.T) {
	if got := MergeSlices(nil, lessItem); got != nil {
		t.Fatalf("no runs: got %v", got)
	}
	if got := MergeSlices(nil, lessItem, nil, nil); got != nil {
		t.Fatalf("empty runs: got %v", got)
	}
	one := []item{{key: 1}, {key: 2}}
	got := MergeSlices(make([]item, 0, 2), lessItem, nil, one, nil)
	if !reflect.DeepEqual(got, one) {
		t.Fatalf("single run: got %v", got)
	}
}

// errSource fails after yielding its run, like a truncated run file.
type errSource struct {
	run  []item
	pos  int
	fail error
}

func (e *errSource) Next() (item, bool) {
	if e.pos >= len(e.run) {
		return item{}, false
	}
	v := e.run[e.pos]
	e.pos++
	return v, true
}

func (e *errSource) Err() error { return e.fail }

func TestMergerSurfacesSourceError(t *testing.T) {
	boom := errors.New("truncated run")
	m := NewMerger(lessItem,
		&errSource{run: []item{{key: 1}}, fail: boom},
		&SliceSource[item]{Run: []item{{key: 2}}},
	)
	n := 0
	for {
		if _, ok := m.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("drained %d items, want 2", n)
	}
	if m.Err() != boom {
		t.Fatalf("Err = %v, want %v", m.Err(), boom)
	}
}
