package ditl

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"
)

// collectAS snapshots one AS (the view's scratch spec is only valid
// during the callback, so tests copy what they compare).
type asSnapshot struct {
	ASN          uint32
	V4Prefixes   []netip.Prefix
	V6Prefixes   []netip.Prefix
	DSAV         bool
	OSAV         bool
	FilterBogons bool
	IDS          bool
	Middlebox    bool
	Countries    []string
	Resolvers    []ResolverSpec
	DeadTargets  []netip.Addr
}

func snapshot(as *ASSpec) asSnapshot {
	s := asSnapshot{
		ASN:          uint32(as.ASN),
		V4Prefixes:   append([]netip.Prefix(nil), as.V4Prefixes...),
		V6Prefixes:   append([]netip.Prefix(nil), as.V6Prefixes...),
		DSAV:         as.DSAV,
		OSAV:         as.OSAV,
		FilterBogons: as.FilterBogons,
		IDS:          as.IDS,
		Middlebox:    as.Middlebox,
		Countries:    append([]string(nil), as.Countries...),
		DeadTargets:  append([]netip.Addr(nil), as.DeadTargets...),
	}
	for k := 0; k < as.NumResolvers(); k++ {
		s.Resolvers = append(s.Resolvers, as.Resolver(k))
	}
	return s
}

// firstASes lists each non-empty slice's first index: the starts a
// sharded survey marks.
func firstASes(parts [][]int) []int {
	var starts []int
	for _, p := range parts {
		if len(p) > 0 {
			starts = append(starts, p[0])
		}
	}
	return starts
}

// TestViewMatchesGenerateAcrossShards pins the tentpole guarantee:
// for K=1, 2, 8, 40 (a mark at every AS) and 64 (empty trailing
// slices) shard slices, the streaming view — unmarked, and marked at
// the slices' first ASes — synthesizes byte-identical
// ASSpecs/ResolverSpecs to the eagerly generated population: same draw
// stream, same specs, any slice. A marked view resumes each slice at
// its mark, already at the first AS's draw count.
func TestViewMatchesGenerateAcrossShards(t *testing.T) {
	params := Params{Seed: 7, ASes: 40}
	pop := Generate(params)
	view := NewView(params)

	if got, want := view.NumASes(), pop.NumASes(); got != want {
		t.Fatalf("view has %d ASes, want %d", got, want)
	}
	for _, k := range []int{1, 2, 8, 40, 64} {
		parts := PartitionIndices(pop.NumASes(), k)
		marked := Marked(view, firstASes(parts)).(*View)
		if got, want := len(marked.marks), min(k, pop.NumASes())-1; got != want {
			t.Fatalf("K=%d: %d marks, want %d (every slice's first AS but AS 0)", k, got, want)
		}
		for _, m := range marked.marks {
			if got, want := marked.resume(nil, m.as).Draws(), marked.draws[m.as]; got != want {
				t.Fatalf("K=%d: resuming at AS %d starts at draw %d, want %d", k, m.as, got, want)
			}
			if got, want := marked.resume(marked.stream(), m.as).Draws(), marked.draws[m.as]; got != want {
				t.Fatalf("K=%d: a fresh stream resumes at AS %d from draw %d, want the mark's %d", k, m.as, got, want)
			}
		}
		for shard, indices := range parts {
			want := make(map[int]asSnapshot)
			pop.EachAS(indices, func(i int, as *ASSpec) { want[i] = snapshot(as) })
			for _, v := range []*View{view, marked} {
				seen := 0
				v.EachAS(indices, func(i int, as *ASSpec) {
					seen++
					if got := snapshot(as); !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("K=%d shard %d AS %d differs (%d marks):\nstreamed: %+v\neager:    %+v",
							k, shard, i, len(v.marks), got, want[i])
					}
				})
				if seen != len(indices) {
					t.Fatalf("K=%d shard %d visited %d ASes, want %d", k, shard, seen, len(indices))
				}
				if got, want := v.CandidateCount(indices), pop.CandidateCount(indices); got != want {
					t.Fatalf("K=%d shard %d candidate count %d, want %d", k, shard, got, want)
				}
			}
		}
	}
	if got, want := view.V6AddrCount(), pop.V6AddrCount(); got != want {
		t.Fatalf("view v6 count %d, want %d", got, want)
	}
	if got, want := view.Summarize(), pop.Summarize(); got != want {
		t.Fatalf("view summary %+v, want %+v", got, want)
	}
	if got, want := view.CandidateCount(nil), pop.CandidateCount(nil); got != want {
		t.Fatalf("view total candidates %d, want %d", got, want)
	}
	if Marked(pop, []int{1, 2}) != Pop(pop) {
		t.Fatal("Marked did not pass an eager population through")
	}
}

// TestViewRevisitAndBackwardJump exercises the stream-restart path: a
// second EachAS over an earlier slice (and out-of-order indices) must
// reproduce the same specs, unmarked and marked, including jumps
// across and back over marks.
func TestViewRevisitAndBackwardJump(t *testing.T) {
	params := Params{Seed: 11, ASes: 20}
	pop := Generate(params)
	view := NewView(params)
	marked := Marked(view, []int{0, 4, 4, 9, 3, 15, 20})
	for _, v := range []Pop{view, marked} {
		for _, order := range [][]int{{15, 16, 17}, {3, 4, 5}, {12, 2, 7}, {19, 0, 9, 8, 10, 4, 16}, nil} {
			v.EachAS(order, func(i int, as *ASSpec) {
				if got, want := snapshot(as), snapshot(pop.ASes[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("indices %v: AS %d differs", order, i)
				}
			})
		}
	}
	if got := marked.(*View).marks; len(got) != 3 || got[0].as != 4 || got[1].as != 9 || got[2].as != 15 {
		t.Fatalf("marks at %+v, want ASes 4, 9 and 15 (0 is the fresh stream; repeats, out-of-order and out-of-range starts are dropped)", got)
	}
}

// TestMarkedViewConcurrentEachAS runs EachAS on one marked view from
// several goroutines at once (run it under -race): each call copies the
// mark it resumes from, so no goroutine advances another's stream.
func TestMarkedViewConcurrentEachAS(t *testing.T) {
	params := Params{Seed: 5, ASes: 48}
	pop := Generate(params)
	parts := PartitionIndices(params.ASes, 6)
	marked := Marked(NewView(params), firstASes(parts))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				indices := parts[(g+rep)%len(parts)]
				marked.EachAS(indices, func(i int, as *ASSpec) {
					if got, want := snapshot(as), snapshot(pop.ASes[i]); !reflect.DeepEqual(got, want) {
						t.Errorf("goroutine %d: AS %d differs", g, i)
					}
				})
			}
		}(g)
	}
	wg.Wait()
}

// TestViewPassiveMatchesEager pins that the synthesized 2018 passive
// view is identical over both representations (it walks resolvers in
// population order through the Pop interface).
func TestViewPassiveMatchesEager(t *testing.T) {
	params := Params{Seed: 13, ASes: 30}
	eager := Passive2018(Generate(params), 99)
	streamed := Passive2018(NewView(params), 99)
	if !reflect.DeepEqual(streamed, eager) {
		t.Fatalf("passive views differ: %d vs %d samples", len(streamed), len(eager))
	}
}

// TestPartitionIndicesProperties is the property test for the shard
// partitioner: for a grid of (n, k), the concatenation of the slices
// is exactly 0..n-1 and slice sizes are balanced within one.
func TestPartitionIndicesProperties(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 40, 100, 1023} {
		for _, k := range []int{-1, 0, 1, 2, 3, 5, 8, 16, 101} {
			parts := PartitionIndices(n, k)
			wantK := k
			if wantK < 1 {
				wantK = 1
			}
			if len(parts) != wantK {
				t.Fatalf("n=%d k=%d: got %d slices", n, k, len(parts))
			}
			next, min, max := 0, n, 0
			for _, part := range parts {
				for _, i := range part {
					if i != next {
						t.Fatalf("n=%d k=%d: concatenation yields %d at position %d", n, k, i, next)
					}
					next++
				}
				if len(part) < min {
					min = len(part)
				}
				if len(part) > max {
					max = len(part)
				}
			}
			if next != n {
				t.Fatalf("n=%d k=%d: concatenation covers %d indices, want %d", n, k, next, n)
			}
			if max-min > 1 {
				t.Fatalf("n=%d k=%d: imbalance %d (min %d, max %d)", n, k, max-min, min, max)
			}
		}
	}
}
