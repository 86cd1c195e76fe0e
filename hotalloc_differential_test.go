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
	"repro/internal/netsim"
	"repro/internal/packet"
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
	// The probe cursor's cycle: re-arm under a reserved number, run.
	seq := q.Reserve(1024)
	assertZeroAllocs(t, "eventq.Queue.AtSeq+Step", func() {
		q.AtSeq(q.Now()+time.Millisecond, seq, tick)
		seq++
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
	assertZeroAllocs(t, "detrand.FoldBytes", func() {
		sinkU64 = detrand.FoldBytes(payload)
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

	// Internet checksums: the IPv4 header sum every build and decode
	// takes, and the transport sum over pseudo-header and segment.
	dst4 := netip.MustParseAddr("198.51.100.7")
	datagram, err := packet.BuildUDP(a4, dst4, 40000, 53, 64, payload)
	if err != nil {
		t.Fatal(err)
	}
	assertZeroAllocs(t, "packet.Checksum", func() {
		sinkU64 = uint64(packet.Checksum(datagram[:20]))
	})
	assertZeroAllocs(t, "packet.TransportChecksum", func() {
		sinkU64 = uint64(packet.TransportChecksum(a4, dst4, packet.IPProtoUDP, datagram[20:]))
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
	p4, p6 := netip.MustParsePrefix("198.51.0.0/18"), netip.MustParsePrefix("2001:db8::/48")
	assertZeroAllocs(t, "routing.SubnetCount+SubnetAt v4", func() {
		sinkPfx = routing.SubnetAt(p4, routing.SubnetCount(p4, 64)-1)
	})
	assertZeroAllocs(t, "routing.SubnetCount+SubnetAt v6", func() {
		sinkPfx = routing.SubnetAt(p6, routing.SubnetCount(p6, 16)-1)
	})
	assertZeroAllocs(t, "routing.IsPrivate", func() {
		sinkBool = routing.IsPrivate(netip.MustParseAddr("fc00::1"))
	})
	assertZeroAllocs(t, "routing.IsSpecialPurpose", func() {
		sinkBool = routing.IsSpecialPurpose(a4)
	})
	reg := routing.NewRegistry()
	if err := reg.Add(&routing.AS{ASN: 64500, Prefixes: []netip.Prefix{
		netip.MustParsePrefix("192.0.2.0/24"),
		netip.MustParsePrefix("2001:db8::/32"),
	}}); err != nil {
		t.Fatal(err)
	}
	assertZeroAllocs(t, "routing.Registry.OriginOf v4", func() {
		sinkBool = reg.OriginOf(a4) != nil
	})
	assertZeroAllocs(t, "routing.Registry.OriginOf v6", func() {
		sinkBool = reg.OriginOf(a6) != nil
	})

	// netsim's verdict path: a datagram its addresses doom is counted
	// without being built or scheduled, so sending one allocates
	// nothing.
	nreg := routing.NewRegistry()
	for _, as := range []*routing.AS{
		{ASN: 64500, Prefixes: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")}},
		{ASN: 64501, Prefixes: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")}, DSAV: true},
	} {
		if err := nreg.Add(as); err != nil {
			t.Fatal(err)
		}
	}
	nw := netsim.New(nreg, netsim.Config{Seed: 1})
	sender, err := nw.Attach("sender", nreg.AS(64500), a4)
	if err != nil {
		t.Fatal(err)
	}
	spoofed := netip.MustParseAddr("198.51.100.9")
	assertZeroAllocs(t, "netsim.Host.SendUDP, DSAV drop", func() {
		sinkBool = sender.SendUDP(spoofed, 40000, dst4, 53, payload) == nil
	})
	assertZeroAllocs(t, "netsim.Host.SendUDP, no host", func() {
		sinkBool = sender.SendUDP(a4, 40000, dst4, 53, payload) == nil
	})
	if d := nw.Drops(); d[netsim.DropDSAV] == 0 || d[netsim.DropNoHost] == 0 || nw.Q.Len() != 0 {
		t.Fatalf("doomed sends: drops %v, %d events pending", d, nw.Q.Len())
	}
	// Under loss and a fault hook, a doomed datagram is written on the
	// network's scratch buffer for the draws, so once the buffer has
	// grown, sending one still allocates nothing. The hook drops some
	// datagrams and duplicates others; each send varies the source port,
	// and with it the bytes the draws read.
	lw := netsim.New(nreg, netsim.Config{Seed: 1, LossRate: 0.3})
	lw.SetFaultHook(func(_ time.Duration, fold uint64, _ *packet.Packet, _, _ *routing.AS) netsim.TransitFault {
		return netsim.TransitFault{Drop: fold%4 == 0, Duplicate: fold%4 == 1, ExtraDelay: time.Duration(fold % 8)}
	})
	lsender, err := lw.Attach("sender", nreg.AS(64500), a4)
	if err != nil {
		t.Fatal(err)
	}
	sport := uint16(40000)
	lsender.SendUDP(spoofed, sport, dst4, 53, payload) // grow the scratch buffer
	assertZeroAllocs(t, "netsim.Host.SendUDP under loss and faults, DSAV drop", func() {
		sport++
		sinkBool = lsender.SendUDP(spoofed, sport, dst4, 53, payload) == nil
	})
	assertZeroAllocs(t, "netsim.Host.SendUDP under loss and faults, no host", func() {
		sport++
		sinkBool = lsender.SendUDP(a4, sport, dst4, 53, payload) == nil
	})
	if d := lw.Drops(); d[netsim.DropDSAV] == 0 || d[netsim.DropNoHost] == 0 || d[netsim.DropLoss] == 0 ||
		d[netsim.DropChaos] == 0 || lw.Q.Len() != 0 {
		t.Fatalf("doomed sends under loss and faults: drops %v, %d events pending", d, lw.Q.Len())
	}

	// A datagram that travels is built and scheduled: its Packet, its
	// bytes and its arrival event, three objects. The network owns the
	// bytes SendUDP builds, so the TTL decrement at the border writes
	// them in place. This is the one send pinned at a nonzero count.
	tw := netsim.New(nreg, netsim.Config{Seed: 1})
	tsender, err := tw.Attach("sender", nreg.AS(64500), a4)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := tw.Attach("receiver", nreg.AS(64501), dst4)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := receiver.BindUDP(53, func(_ time.Duration, _ netip.Addr, _ uint16, _ netip.Addr, _ uint16, data []byte) {
		got += len(data)
	}); err != nil {
		t.Fatal(err)
	}
	tsender.SendUDP(a4, 40000, dst4, 53, payload) // warm the event queue
	tw.Run()
	if avg := testing.AllocsPerRun(200, func() {
		sinkBool = tsender.SendUDP(a4, 40000, dst4, 53, payload) == nil
		tw.Run()
	}); avg != 3 {
		t.Errorf("netsim.Host.SendUDP across a border, delivered: %v allocs/op, want 3", avg)
	}
	if tw.Delivered() == 0 || got != int(tw.Delivered())*len(payload) {
		t.Fatalf("travelling sends: %d delivered, %d payload bytes", tw.Delivered(), got)
	}

	// The probe writer every probe goes through, the probe cursor's main
	// probes included: address labels append into a warmed buffer, and a
	// main probe its addresses doom is written, packed and counted
	// without a datagram.
	var label []byte
	assertZeroAllocs(t, "scanner.AppendAddrLabel v4", func() {
		label = scanner.AppendAddrLabel(label[:0], a4)
	})
	assertZeroAllocs(t, "scanner.AppendAddrLabel v6", func() {
		label = scanner.AppendAddrLabel(label[:0], a6)
	})
	sc, err := scanner.New(sender, a4, netip.Addr{}, nreg, nil, scanner.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	probe := scanner.Target{Addr: dst4, ASN: 64501}
	sc.SendProbe(0, spoofed, probe, scanner.ProbeMain) // warm the name and message buffers
	assertZeroAllocs(t, "scanner.Scanner.SendProbe, main probe, DSAV drop", func() {
		sc.SendProbe(time.Second, spoofed, probe, scanner.ProbeMain)
	})
	if sc.Stats.ProbesSent == 0 || nw.Q.Len() != 0 {
		t.Fatalf("doomed main probes: %d sent, %d events pending", sc.Stats.ProbesSent, nw.Q.Len())
	}

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
