package analysis

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/fingerprint"
	"repro/internal/oskernel"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/scanner"
)

// synFrom builds the TCP SYN a host running profile p sends from src,
// as the authoritative server captures it.
func synFrom(t *testing.T, p *oskernel.Profile, src netip.Addr) *packet.Packet {
	t.Helper()
	fp := p.Fingerprint
	mss := make([]byte, 2)
	binary.BigEndian.PutUint16(mss, fp.MSS)
	opts := []packet.TCPOption{{Kind: packet.TCPOptMSS, Data: mss}}
	if fp.SACKPermit {
		opts = append(opts, packet.TCPOption{Kind: packet.TCPOptSACKPermit})
	}
	if fp.Timestamps {
		opts = append(opts, packet.TCPOption{Kind: packet.TCPOptTimestamps, Data: make([]byte, 8)})
	}
	if fp.WindowScale >= 0 {
		opts = append(opts, packet.TCPOption{Kind: packet.TCPOptWindowScale, Data: []byte{byte(fp.WindowScale)}})
	}
	tcp := &packet.TCP{SrcPort: 50000, DstPort: 53, SYN: true, Window: fp.WindowSize, Options: opts}
	raw, err := packet.BuildTCP(src, addr("223.253.0.53"), tcp, fp.InitialTTL-7, nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := packet.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestMergeContextsMatchesAnalyze pins the per-shard fold: hits split
// by target AS into three sorted runs, partitioned one run at a time and
// merged, must reduce to exactly the Report that Analyze builds over the
// whole sorted log, with a reduce Input that carries no buffers. The
// hits exercise every fold that used to read the merged log: a port
// sample longer than FollowUpCount behind a late follow-up that must
// not count, two TC SYNs whose last in LessHit order labels the sample,
// direct, forwarded and family-mismatched transport follow-ups, and
// clients inside the target AS, in public-DNS space and in third-party
// space.
func TestMergeContextsMatchesAnalyze(t *testing.T) {
	reg, gdb, targets := fixture()
	reg.Add(&routing.AS{ASN: 300, Prefixes: []netip.Prefix{prefix("2001:db8:300::/48")}})
	reg.Add(&routing.AS{ASN: 40, Prefixes: []netip.Prefix{prefix("198.18.0.0/15"), prefix("2001:db8:40::/48")}})
	gdb.Assign(300, "DE")
	targets = append(targets,
		scanner.Target{Addr: addr("2001:db8:300::53"), ASN: 300},
		scanner.Target{Addr: addr("2001:db8:300::99"), ASN: 300},
	)
	scanners := []netip.Addr{scannerAddr, addr("2001:db8:ffff::10")}

	hit := func(recv time.Duration, kind scanner.ProbeKind, src, dst string, asn routing.ASN, client string, port uint16) scanner.Hit {
		return scanner.Hit{
			Recv: recv, TS: recv - time.Second, Lifetime: time.Second,
			Src: addr(src), Dst: addr(dst), ASN: asn, Kind: kind,
			Client: addr(client), ClientPort: port, Transport: authserver.TransportUDP,
		}
	}
	var hits []scanner.Hit

	// AS 100, explained from inside the AS. 198.51.100.53 answers the
	// open probe, sends twelve direct UDP follow-ups after a late one,
	// one follow-up through public DNS, and two TC SYNs: the Linux one
	// arrives last, though it is listed first.
	a := "198.51.100.53"
	hits = append(hits,
		hit(2*time.Second, scanner.ProbeMain, "203.0.113.7", a, 100, a, 40000),
		hit(2*time.Second, scanner.ProbeMain, scannerAddr.String(), a, 100, a, 40001),
	)
	late := hit(3*time.Second, scanner.ProbeV4, "203.0.113.7", a, 100, a, 7)
	late.Lifetime = time.Hour
	hits = append(hits, late)
	for i := range 12 {
		hits = append(hits, hit(time.Duration(4+i)*time.Second, scanner.ProbeV4, "203.0.113.7", a, 100, a, uint16(1000+37*i)))
	}
	hits = append(hits, hit(16*time.Second, scanner.ProbeV4, "203.0.113.7", a, 100, "223.253.0.2", 40002))
	linux := hit(30*time.Second, scanner.ProbeTC, "203.0.113.7", a, 100, a, 41000)
	linux.Transport, linux.SYN = authserver.TransportTCP, synFrom(t, oskernel.UbuntuModern, addr(a))
	windows := hit(20*time.Second, scanner.ProbeTC, "203.0.113.7", a, 100, a, 41001)
	windows.Transport, windows.SYN = authserver.TransportTCP, synFrom(t, oskernel.WindowsModern, addr(a))
	hits = append(hits, linux, windows)
	// 198.51.100.99 is seen only past the lifetime threshold.
	lateOnly := hit(2*time.Second, scanner.ProbeMain, "203.0.113.8", "198.51.100.99", 100, "198.51.100.99", 40003)
	lateOnly.Lifetime = time.Hour
	hits = append(hits, lateOnly)

	// AS 200, explained by public DNS. 192.0.2.53's follow-up is
	// forwarded through the public resolver; 192.0.2.99 sends only
	// family-mismatched follow-ups, which must not count (a v6-zone
	// query for a v4 target, and a v4-zone query arriving over v6).
	b, e := "192.0.2.53", "192.0.2.99"
	hits = append(hits,
		hit(2*time.Second, scanner.ProbeMain, "192.0.2.9", b, 200, "223.253.0.1", 40004),
		hit(4*time.Second, scanner.ProbeV4, "192.0.2.9", b, 200, "223.253.0.1", 40005),
		hit(2*time.Second, scanner.ProbeMain, "192.0.2.9", e, 200, "223.253.0.1", 40006),
		hit(5*time.Second, scanner.ProbeV6, "192.0.2.9", e, 200, "2001:db8:40::1", 40007),
		hit(6*time.Second, scanner.ProbeV4, "192.0.2.9", e, 200, "2001:db8:40::2", 40008),
	)

	// AS 300, unexplained: a v6 target reached only through a
	// third-party upstream, which also forwards its v6 follow-up.
	c := "2001:db8:300::53"
	hits = append(hits,
		hit(2*time.Second, scanner.ProbeMain, "2001:db8:300:1::9", c, 300, "2001:db8:40::1", 40009),
		hit(4*time.Second, scanner.ProbeV6, "2001:db8:300:1::9", c, 300, "2001:db8:40::1", 40010),
	)

	partials := []scanner.PartialHit{
		{Recv: time.Second, Client: addr(a), Name: "x1.dns-lab.org"},
		{Recv: time.Second, Client: addr("2001:db8:300::99"), Name: "x1.dns-lab.org"},
	}

	whole := append([]scanner.Hit(nil), hits...)
	scanner.SortHits(whole)
	want := Analyze(Input{
		Hits: whole, Partials: partials, Targets: targets,
		ScannerAddrs: scanners, Reg: reg, Geo: gdb,
	})

	var parts []*Context
	for _, asn := range []routing.ASN{100, 200, 300} {
		in := Input{ScannerAddrs: scanners, Reg: reg, Geo: gdb}
		for _, h := range hits {
			if h.ASN == asn {
				in.Hits = append(in.Hits, h)
			}
		}
		scanner.SortHits(in.Hits)
		for _, p := range partials {
			if reg.OriginOf(p.Client).ASN == asn {
				in.Partials = append(in.Partials, p)
			}
		}
		for _, tg := range targets {
			if tg.ASN == asn {
				in.Targets = append(in.Targets, tg)
			}
		}
		parts = append(parts, Partition(in))
	}
	got := &Report{}
	MergeContexts(Input{ScannerAddrs: scanners, Reg: reg, Geo: gdb}, parts).Reduce(got, AllReducers())

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged per-AS partitions differ from Analyze:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Ports.Samples) != 1 {
		t.Fatalf("port samples = %d, want 1", len(got.Ports.Samples))
	}
	s := got.Ports.Samples[0]
	wantPorts := []uint16{1000, 1037, 1074, 1111, 1148, 1185, 1222, 1259, 1296, 1333}
	if s.Addr != addr(a) || !reflect.DeepEqual(s.RawPorts, wantPorts) || s.P0f != fingerprint.LabelLinux || !s.Open {
		t.Fatalf("sample = %+v; want %s's first ten timely ports %v, open, labeled Linux by its last SYN", s, a, wantPorts)
	}
	if f := got.Forwarding; f != (Forwarding{V4Resolved: 2, V4Direct: 1, V4Forwarded: 2, V4Both: 1, V6Resolved: 1, V6Forwarded: 1}) {
		t.Fatalf("forwarding = %+v", f)
	}
	if m := got.Middlebox; m != (Middlebox{ReachableASes: 3, DirectFromAS: 1, ViaPublicDNS: 1, Unexplained: 1}) {
		t.Fatalf("middlebox = %+v", m)
	}
	if l := got.Lifetime; l != (Lifetime{OverThresholdAddrs: 1, OverThresholdASes: 1, RecoveredASes: 1}) {
		t.Fatalf("lifetime = %+v", l)
	}
}
