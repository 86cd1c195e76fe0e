package doors

// Differential validation of the hotalloc analyzer (internal/lint):
// every function exercised here is classified Never by the static
// analysis, so testing.AllocsPerRun over a warmed instance must report
// zero allocations. A failure means either a real hot-path regression
// (the function started allocating) or an analyzer false negative (it
// allocates and hotalloc missed it) — both are bugs worth a red build.
//
// The dynamic bench guard (scripts/bench.sh allocs/op gates) watches
// one headline benchmark; this test pins the individual building
// blocks the static proof covers.

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/ditl"
	"repro/internal/eventq"
	"repro/internal/resolver"
	"repro/internal/routing"
	"repro/internal/runs"
	"repro/internal/scanner"
)

// Package-level sinks keep the measured calls from being optimized
// away without adding heap traffic of their own.
var (
	sinkU64  uint64
	sinkF64  float64
	sinkInt  int
	sinkBool bool
	sinkCat  scanner.SourceCategory
	sinkPfx  netip.Prefix
	sinkSpec ditl.ResolverSpec
	sinkHit  scanner.Hit
)

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %v allocs/op; hotalloc classifies it Never — analyzer false negative or hot-path regression", name, avg)
	}
}

func TestHotPathsAllocationFree(t *testing.T) {
	// eventq: warm push/pop cycle. After the drain, the item slab,
	// heap, and free list have capacity for steady-state reuse.
	q := eventq.New()
	tick := func(now time.Duration) {}
	for i := 0; i < 64; i++ {
		q.At(time.Duration(i)*time.Millisecond, tick)
	}
	q.Run()
	assertZeroAllocs(t, "eventq.Queue.At+Step", func() {
		q.At(q.Now()+time.Millisecond, tick)
		q.Step()
	})
	assertZeroAllocs(t, "eventq.Queue.After+Step", func() {
		q.After(time.Millisecond, tick)
		q.Step()
	})

	// detrand draws: causal-identity hashing, variadic args included
	// (the arg slices must stay on the stack).
	a4 := netip.MustParseAddr("192.0.2.7")
	a6 := netip.MustParseAddr("2001:db8::7")
	payload := []byte("question.example.")
	assertZeroAllocs(t, "detrand.Mix", func() {
		sinkU64 = detrand.Mix(1, 2, 3, 4)
	})
	assertZeroAllocs(t, "detrand.HashBytes", func() {
		sinkU64 = detrand.HashBytes(42, payload)
	})
	assertZeroAllocs(t, "detrand.AddrWords", func() {
		h, l := detrand.AddrWords(a6)
		sinkU64 = h ^ l
	})
	assertZeroAllocs(t, "detrand.Float64", func() {
		sinkF64 = detrand.Float64(7, 8)
	})
	assertZeroAllocs(t, "detrand.Intn", func() {
		sinkInt = detrand.Intn(97, 9, 10)
	})
	// A causal stream's draws go through *rand.Rand's dynamic calls, so
	// only this test pins them: allocation-free inside the closed-form
	// window (AllocsPerRun's 201 draws stay under draw 273) and after
	// the stream has built its state.
	rng := detrand.Rand(5, 6)
	assertZeroAllocs(t, "detrand.Rand draw, first 273", func() {
		sinkU64 = uint64(rng.Int63())
	})
	for i := 0; i < 100; i++ {
		rng.Int63()
	}
	assertZeroAllocs(t, "detrand.Rand draw, past 273", func() {
		sinkU64 = rng.Uint64()
	})

	// Resolver admission: the ACL walk is the first hop of every
	// client query.
	acl := resolver.ACL{Allowed: []netip.Prefix{
		netip.MustParsePrefix("192.0.2.0/24"),
		netip.MustParsePrefix("2001:db8::/32"),
	}}
	assertZeroAllocs(t, "resolver.ACL.Allows", func() {
		sinkBool = acl.Allows(a4)
	})

	// Scanner categorization and the routing helpers under it.
	scannerAddrs := []netip.Addr{netip.MustParseAddr("198.51.100.1")}
	src := netip.MustParseAddr("10.1.2.3")
	assertZeroAllocs(t, "scanner.Categorize", func() {
		sinkCat = scanner.Categorize(src, a4, scannerAddrs)
	})
	assertZeroAllocs(t, "routing.SubnetOf", func() {
		sinkPfx = routing.SubnetOf(a6)
	})
	assertZeroAllocs(t, "routing.IsPrivate", func() {
		sinkBool = routing.IsPrivate(netip.MustParseAddr("fc00::1"))
	})
	assertZeroAllocs(t, "routing.IsSpecialPurpose", func() {
		sinkBool = routing.IsSpecialPurpose(a4)
	})

	// The merge core: run comparators and a warmed Merger draining
	// in-memory runs. Merger.Next's only dynamic calls are the Source
	// seam, which on the slice path allocates nothing.
	hits := []scanner.Hit{
		{Recv: time.Second, Dst: a4, Src: src, ASN: 64500},
		{Recv: 2 * time.Second, Dst: a6, Src: src, ASN: 64501},
	}
	assertZeroAllocs(t, "scanner.LessHit", func() {
		sinkBool = scanner.LessHit(&hits[0], &hits[1])
	})
	parts := []scanner.PartialHit{
		{Recv: time.Second, Client: a4, Name: "a.example."},
		{Recv: 2 * time.Second, Client: a6, Name: "b.example."},
	}
	assertZeroAllocs(t, "scanner.LessPartial", func() {
		sinkBool = scanner.LessPartial(&parts[0], &parts[1])
	})
	// Runs long enough that the measured draws never exhaust a source
	// (AllocsPerRun takes ~201 items; the merger holds 1024).
	big := make([]scanner.Hit, 512)
	for i := range big {
		big[i] = scanner.Hit{Recv: time.Duration(i) * time.Millisecond, Dst: a4, ASN: 64500}
	}
	m := runs.NewMerger(scanner.LessHit,
		&runs.SliceSource[scanner.Hit]{Run: big},
		&runs.SliceSource[scanner.Hit]{Run: big})
	assertZeroAllocs(t, "runs.Merger.Next", func() {
		sinkHit, sinkBool = m.Next()
	})

	// ditl slab accessors, measured inside the streaming view's
	// callback where the scratch ASSpec is valid.
	pop := ditl.Generate(ditl.Params{Seed: 11, ASes: 40})
	measured := false
	pop.EachAS(nil, func(i int, as *ditl.ASSpec) {
		if measured || as.NumResolvers() == 0 {
			return
		}
		measured = true
		assertZeroAllocs(t, "ditl.ASSpec.Resolver", func() {
			for k := 0; k < as.NumResolvers(); k++ {
				sinkSpec = as.Resolver(k)
			}
		})
	})
	if !measured {
		t.Fatal("population yielded no AS with resolvers to measure")
	}
}
