package doors

// Differential validation of the hotalloc analyzer (internal/lint):
// every function exercised here is classified Never by the static
// analysis, so testing.AllocsPerRun over a warmed instance must report
// zero allocations. A failure means either a real hot-path regression
// (the function started allocating) or an analyzer false negative (it
// allocates and hotalloc missed it) — both are bugs worth a red build.
// Next to them, assertAllocs pins the few objects a faulted netsim send
// makes on purpose.
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

// assertAllocs pins f at exactly want allocations a run, for a path
// whose objects are part of its contract: more is a regression, and
// fewer changes the contract.
func assertAllocs(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != want {
		t.Errorf("%s: %v allocs/op, want %v", name, avg, want)
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
	// Reseeding restarts the generator on another key's stream without
	// building one, so the planners' one generator per scanner or plan
	// draws each target's sources allocation-free. Like the draws, it
	// goes through *rand.Rand, so only this test pins it.
	key := uint64(0)
	assertZeroAllocs(t, "detrand.Reseed+draws", func() {
		key++
		detrand.Reseed(rng, 5, key)
		sinkU64 = uint64(rng.Int63n(1<<24-2)) + uint64(rng.Intn(98))
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
	// client query. The resolver's unexported hot paths, the server
	// pick and the ephemeral port's bind and release, are pinned by its
	// own package's tests (TestPickServerAllocations,
	// TestBindPortAllocations).
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
	// Under loss and a fault hook, a doomed datagram is written on a
	// flight record for the draws, which goes back to the network as
	// soon as transit has counted the drop, so once a record's bytes
	// have grown, sending one still allocates nothing. The hook drops
	// some datagrams and duplicates others; each send varies the source
	// port, and with it the bytes the draws read.
	lw := netsim.New(nreg, netsim.Config{Seed: 1, LossRate: 0.3})
	lw.SetFaultHook(func(_ time.Duration, fold uint64, _ *packet.Packet, _, _ *routing.AS) netsim.TransitFault {
		return netsim.TransitFault{Drop: fold%4 == 0, Duplicate: fold%4 == 1, ExtraDelay: time.Duration(fold % 8)}
	})
	lsender, err := lw.Attach("sender", nreg.AS(64500), a4)
	if err != nil {
		t.Fatal(err)
	}
	sport := uint16(40000)
	lsender.SendUDP(spoofed, sport, dst4, 53, payload) // grow a record's bytes
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

	// A datagram that travels is written on the Packet and bytes of a
	// flight record whose journey has ended, and its arrival event is
	// the record's own. The network owns the bytes SendUDP writes, so
	// the TTL decrement at the border writes them in place. Once warm, a
	// delivered send across a border allocates nothing, and neither does
	// a request-and-reply round trip whose handler answers with SendUDP
	// while its own datagram's record is still out.
	tw := netsim.New(nreg, netsim.Config{Seed: 1})
	tsender, err := tw.Attach("sender", nreg.AS(64500), a4)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := tw.Attach("receiver", nreg.AS(64501), dst4)
	if err != nil {
		t.Fatal(err)
	}
	got, replies := 0, 0
	if err := receiver.BindUDP(53, func(_ time.Duration, _ netip.Addr, _ uint16, _ netip.Addr, _ uint16, data []byte) {
		got += len(data)
	}); err != nil {
		t.Fatal(err)
	}
	if err := receiver.BindUDP(54, func(_ time.Duration, src netip.Addr, sport uint16, dst netip.Addr, dport uint16, data []byte) {
		got += len(data)
		sinkBool = receiver.SendUDP(dst, dport, src, sport, data) == nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tsender.BindUDP(40001, func(_ time.Duration, _ netip.Addr, _ uint16, _ netip.Addr, _ uint16, data []byte) {
		replies += len(data)
	}); err != nil {
		t.Fatal(err)
	}
	tsender.SendUDP(a4, 40000, dst4, 53, payload) // warm the event queue
	tsender.SendUDP(a4, 40001, dst4, 54, payload) // and two records
	tw.Run()
	assertZeroAllocs(t, "netsim.Host.SendUDP across a border, delivered", func() {
		sinkBool = tsender.SendUDP(a4, 40000, dst4, 53, payload) == nil
		tw.Run()
	})
	assertZeroAllocs(t, "netsim.Host.SendUDP, request and reply across a border", func() {
		sinkBool = tsender.SendUDP(a4, 40001, dst4, 54, payload) == nil
		tw.Run()
	})
	if tw.Delivered() == 0 || got+replies != int(tw.Delivered())*len(payload) || replies == 0 {
		t.Fatalf("travelling sends: %d delivered, %d payload bytes, %d of them replies", tw.Delivered(), got+replies, replies)
	}
	// A faulted send travels on a record as well. A duplicate's second
	// copy gets bytes of its own and decodes into a Packet of its own at
	// arrival, so a server that keeps a TCP SYN never holds recycled
	// storage: two objects. A corrupted datagram is decoded at arrival,
	// where its flipped payload bit fails the UDP checksum, and its
	// record goes back: the failed decode's Packet is its one object.
	fw := netsim.New(nreg, netsim.Config{Seed: 1})
	corrupt := false
	fw.SetFaultHook(func(_ time.Duration, _ uint64, pkt *packet.Packet, _, _ *routing.AS) netsim.TransitFault {
		if corrupt {
			return netsim.TransitFault{Corrupt: true, CorruptBit: 8 * (len(pkt.Raw) - 1)}
		}
		return netsim.TransitFault{Duplicate: true, DupDelay: time.Millisecond}
	})
	fsender, err := fw.Attach("sender", nreg.AS(64500), a4)
	if err != nil {
		t.Fatal(err)
	}
	freceiver, err := fw.Attach("receiver", nreg.AS(64501), dst4)
	if err != nil {
		t.Fatal(err)
	}
	dupGot := 0
	if err := freceiver.BindUDP(53, func(_ time.Duration, _ netip.Addr, _ uint16, _ netip.Addr, _ uint16, data []byte) {
		dupGot += len(data)
	}); err != nil {
		t.Fatal(err)
	}
	fsender.SendUDP(a4, 40000, dst4, 53, payload) // warm the event queue and two records
	fw.Run()
	assertAllocs(t, "netsim.Host.SendUDP across a border, duplicated", 2, func() {
		sinkBool = fsender.SendUDP(a4, 40000, dst4, 53, payload) == nil
		fw.Run()
	})
	corrupt = true
	assertAllocs(t, "netsim.Host.SendUDP across a border, corrupted", 1, func() {
		sinkBool = fsender.SendUDP(a4, 40000, dst4, 53, payload) == nil
		fw.Run()
	})
	if d := fw.Drops(); d[netsim.DropMalformed] == 0 || len(d) != 1 || fw.Delivered()%2 != 0 ||
		dupGot != int(fw.Delivered())*len(payload) || fw.Q.Len() != 0 {
		t.Fatalf("faulted sends: %d delivered, %d payload bytes, drops %v, %d events pending",
			fw.Delivered(), dupGot, d, fw.Q.Len())
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
	// A follow-up set runs on a record from the scanner's free list and
	// re-arms the record's one bound event for each send, so once a set
	// has run, the next one, all 22 of its sends included, allocates
	// nothing when its probes' addresses doom them.
	hit := scanner.Decoded{Src: spoofed, Dst: dst4, ASN: 64501, Kind: scanner.ProbeMain}
	sc.ScheduleFollowUps(hit) // warm the record and the event queue
	nw.Run()
	assertZeroAllocs(t, "scanner.Scanner.ScheduleFollowUps, warm set and its sends", func() {
		sc.ScheduleFollowUps(hit)
		nw.Run()
	})
	if st := sc.Stats; st.FollowUpSetsSent == 0 || st.FollowUpQueries != 22*st.FollowUpSetsSent || nw.Q.Len() != 0 {
		t.Fatalf("doomed follow-up sets: %d sets, %d queries, %d events pending", st.FollowUpSetsSent, st.FollowUpQueries, nw.Q.Len())
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

	// ditl resolver accessors, measured inside the streaming view's
	// callback where the scratch ASSpec is valid.
	pop := ditl.NewView(ditl.Params{Seed: 11, ASes: 40})
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
