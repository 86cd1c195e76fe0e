package analysis

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/ditl"
	"repro/internal/geo"
	"repro/internal/routing"
	"repro/internal/scanner"
	"repro/internal/stats"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

var scannerAddr = addr("223.254.0.10")

// fixture builds a two-AS world: AS 100 (198.51.100.0/24, 203.0.113.0/24)
// and AS 200 (192.0.2.0/24).
func fixture() (reg *routing.Registry, gdb *geo.DB, targets []scanner.Target) {
	reg = routing.NewRegistry()
	reg.Add(&routing.AS{ASN: 100, Prefixes: []netip.Prefix{prefix("198.51.100.0/24"), prefix("203.0.113.0/24")}})
	reg.Add(&routing.AS{ASN: 200, Prefixes: []netip.Prefix{prefix("192.0.2.0/24")}})
	reg.Add(&routing.AS{ASN: 30, Prefixes: []netip.Prefix{prefix("223.253.0.0/16")}, Infra: true, PublicService: true})
	gdb = geo.New()
	gdb.Assign(100, "US")
	gdb.Assign(200, "BR")
	targets = []scanner.Target{
		{Addr: addr("198.51.100.53"), ASN: 100},
		{Addr: addr("198.51.100.99"), ASN: 100},
		{Addr: addr("192.0.2.53"), ASN: 200},
		{Addr: addr("192.0.2.99"), ASN: 200},
	}
	return
}

// mainHit builds a timely main-probe hit.
func mainHit(src, dst string, asn routing.ASN) scanner.Hit {
	return scanner.Hit{
		Recv: 2 * time.Second, TS: time.Second, Lifetime: time.Second,
		Src: addr(src), Dst: addr(dst), ASN: asn, Kind: scanner.ProbeMain,
		Client: addr(dst), ClientPort: 40000, Transport: authserver.TransportUDP,
	}
}

func TestAnalyzeHeadlineAndReachability(t *testing.T) {
	reg, gdb, targets := fixture()
	hits := []scanner.Hit{
		mainHit("203.0.113.7", "198.51.100.53", 100),  // other-prefix
		mainHit("198.51.100.9", "198.51.100.53", 100), // same-prefix
	}
	r := Analyze(Input{
		Hits: hits, Targets: targets, ScannerAddrs: []netip.Addr{scannerAddr},
		Reg: reg, Geo: gdb,
	})
	if r.V4.Targets != 4 || r.V4.ReachableAddrs != 1 {
		t.Fatalf("headline = %+v", r.V4)
	}
	if r.V4.ASes != 2 || r.V4.ReachableASes != 1 {
		t.Fatalf("AS headline = %+v", r.V4)
	}
	if r.MedianSourcesV4 != 2 {
		t.Fatalf("median sources = %v", r.MedianSourcesV4)
	}
}

func TestAnalyzeLifetimeFilter(t *testing.T) {
	reg, gdb, targets := fixture()
	late := mainHit("203.0.113.7", "198.51.100.53", 100)
	late.Lifetime = time.Hour // human analyst
	timely := mainHit("192.0.2.9", "192.0.2.53", 200)
	r := Analyze(Input{
		Hits: []scanner.Hit{late, timely}, Targets: targets,
		ScannerAddrs: []netip.Addr{scannerAddr}, Reg: reg, Geo: gdb,
	})
	if r.V4.ReachableAddrs != 1 {
		t.Fatalf("reachable = %d, want the timely one only", r.V4.ReachableAddrs)
	}
	if r.Lifetime.OverThresholdAddrs != 1 || r.Lifetime.OverThresholdASes != 1 {
		t.Fatalf("lifetime = %+v", r.Lifetime)
	}
	if r.Lifetime.RecoveredASes != 0 {
		t.Fatalf("AS 100 has no timely resolver, must not be recovered: %+v", r.Lifetime)
	}
}

func TestAnalyzeLifetimeRecovery(t *testing.T) {
	reg, gdb, targets := fixture()
	late := mainHit("203.0.113.7", "198.51.100.53", 100)
	late.Lifetime = time.Hour
	other := mainHit("203.0.113.8", "198.51.100.99", 100) // same AS, timely
	r := Analyze(Input{
		Hits: []scanner.Hit{late, other}, Targets: targets,
		ScannerAddrs: []netip.Addr{scannerAddr}, Reg: reg, Geo: gdb,
	})
	if r.Lifetime.OverThresholdAddrs != 1 || r.Lifetime.RecoveredASes != 1 {
		t.Fatalf("lifetime = %+v (§3.6.3 recovery via other resolvers)", r.Lifetime)
	}
}

func TestAnalyzeTable3Exclusive(t *testing.T) {
	reg, gdb, targets := fixture()
	hits := []scanner.Hit{
		// Target 1: other-prefix only.
		mainHit("203.0.113.7", "198.51.100.53", 100),
		// Target 2 (other AS): dst-as-src only.
		mainHit("192.0.2.53", "192.0.2.53", 200),
	}
	r := Analyze(Input{
		Hits: hits, Targets: targets, ScannerAddrs: []netip.Addr{scannerAddr},
		Reg: reg, Geo: gdb,
	})
	rows := map[scanner.SourceCategory]CategoryRow{}
	for _, row := range r.Table3.V4 {
		rows[row.Category] = row
	}
	op := rows[scanner.CatOtherPrefix]
	if op.InclusiveAddrs != 1 || op.ExclusiveAddrs != 1 || op.InclusiveASNs != 1 || op.ExclusiveASNs != 1 {
		t.Fatalf("other-prefix row = %+v", op)
	}
	ds := rows[scanner.CatDstAsSrc]
	if ds.InclusiveAddrs != 1 || ds.ExclusiveAddrs != 1 || ds.ExclusiveASNs != 1 {
		t.Fatalf("dst-as-src row = %+v", ds)
	}
}

func TestAnalyzeOpenClosed(t *testing.T) {
	reg, gdb, targets := fixture()
	openProbe := mainHit("223.254.0.10", "198.51.100.53", 100) // non-spoofed: open-resolver probe answered
	hits := []scanner.Hit{
		mainHit("203.0.113.7", "198.51.100.53", 100),
		openProbe,
		mainHit("192.0.2.9", "192.0.2.53", 200), // closed (never answered open probe)
	}
	r := Analyze(Input{
		Hits: hits, Targets: targets, ScannerAddrs: []netip.Addr{scannerAddr},
		Reg: reg, Geo: gdb,
	})
	if r.OpenClosed.Open != 1 || r.OpenClosed.Closed != 1 {
		t.Fatalf("open/closed = %+v", r.OpenClosed)
	}
	if r.OpenClosed.ReachableASes != 2 || r.OpenClosed.ASesWithClosed != 1 {
		t.Fatalf("AS accounting = %+v", r.OpenClosed)
	}
}

// followUps builds n v4-zone UDP follow-up hits with the given ports.
func followUps(dst string, asn routing.ASN, ports []uint16) []scanner.Hit {
	out := make([]scanner.Hit, 0, len(ports))
	for i, p := range ports {
		out = append(out, scanner.Hit{
			Recv: time.Duration(3+i) * time.Second, TS: time.Duration(2+i) * time.Second,
			Lifetime: time.Second, Src: addr("203.0.113.7"), Dst: addr(dst), ASN: asn,
			Kind: scanner.ProbeV4, Client: addr(dst), ClientPort: p,
			Transport: authserver.TransportUDP,
		})
	}
	return out
}

func TestAnalyzePortSamplesAndTable4(t *testing.T) {
	reg, gdb, targets := fixture()
	hits := []scanner.Hit{mainHit("203.0.113.7", "198.51.100.53", 100)}
	hits = append(hits, followUps("198.51.100.53", 100, []uint16{53, 53, 53, 53, 53, 53, 53, 53, 53, 53})...)
	hits = append(hits, mainHit("192.0.2.9", "192.0.2.53", 200))
	hits = append(hits, followUps("192.0.2.53", 200, []uint16{2000, 40000, 50000, 60000, 35000, 36000, 37000, 38000, 39000, 65000})...)
	r := Analyze(Input{
		Hits: hits, Targets: targets, ScannerAddrs: []netip.Addr{scannerAddr},
		Reg: reg, Geo: gdb,
	})
	if len(r.Ports.Samples) != 2 {
		t.Fatalf("samples = %d", len(r.Ports.Samples))
	}
	if len(r.Ports.ZeroRange) != 1 || r.Ports.ZeroRangePort53 != 1 || r.Ports.ZeroRangeClosed != 1 {
		t.Fatalf("zero range = %+v", r.Ports)
	}
	var zeroRow, fullRow BandRow
	for _, row := range r.Ports.Table4 {
		if row.Band.Lo == 0 && row.Band.Hi == 0 {
			zeroRow = row
		}
		if row.Band.Label == "Full Port Range" {
			fullRow = row
		}
	}
	if zeroRow.Total != 1 || zeroRow.Closed != 1 {
		t.Fatalf("zero band row = %+v", zeroRow)
	}
	if fullRow.Total != 1 {
		t.Fatalf("full band row = %+v (range 63000 belongs there)", fullRow)
	}
}

func TestAnalyzeIncompleteSampleDropped(t *testing.T) {
	reg, gdb, targets := fixture()
	hits := []scanner.Hit{mainHit("203.0.113.7", "198.51.100.53", 100)}
	hits = append(hits, followUps("198.51.100.53", 100, []uint16{53, 53, 53})...) // only 3 of 10
	r := Analyze(Input{
		Hits: hits, Targets: targets, ScannerAddrs: []netip.Addr{scannerAddr},
		Reg: reg, Geo: gdb,
	})
	if len(r.Ports.Samples) != 0 {
		t.Fatal("incomplete port sample not dropped")
	}
}

func TestAnalyzeForwarding(t *testing.T) {
	reg, gdb, targets := fixture()
	hits := []scanner.Hit{mainHit("203.0.113.7", "198.51.100.53", 100)}
	// Forwarded: client is the public DNS, not the target.
	fw := followUps("198.51.100.53", 100, []uint16{1000})[0]
	fw.Client = addr("223.253.0.1")
	hits = append(hits, fw)
	// Direct for the other target.
	hits = append(hits, mainHit("192.0.2.9", "192.0.2.53", 200))
	hits = append(hits, followUps("192.0.2.53", 200, []uint16{2000})[0])
	r := Analyze(Input{
		Hits: hits, Targets: targets, ScannerAddrs: []netip.Addr{scannerAddr},
		Reg: reg, Geo: gdb,
	})
	f := r.Forwarding
	if f.V4Resolved != 2 || f.V4Direct != 1 || f.V4Forwarded != 1 || f.V4Both != 0 {
		t.Fatalf("forwarding = %+v", f)
	}
}

func TestAnalyzeMiddleboxAccounting(t *testing.T) {
	reg, gdb, targets := fixture()
	// AS 100 reached via public DNS only; AS 200 directly.
	viaPublic := mainHit("203.0.113.7", "198.51.100.53", 100)
	viaPublic.Client = addr("223.253.0.1")
	hits := []scanner.Hit{viaPublic, mainHit("192.0.2.9", "192.0.2.53", 200)}
	r := Analyze(Input{
		Hits: hits, Targets: targets, ScannerAddrs: []netip.Addr{scannerAddr},
		Reg: reg, Geo: gdb,
	})
	m := r.Middlebox
	if m.ReachableASes != 2 || m.DirectFromAS != 1 || m.ViaPublicDNS != 1 || m.Unexplained != 0 {
		t.Fatalf("middlebox = %+v", m)
	}
}

func TestAnalyzeQmin(t *testing.T) {
	reg, gdb, targets := fixture()
	partials := []scanner.PartialHit{
		{Recv: time.Second, Client: addr("198.51.100.53"), Name: "x1.dns-lab.org"},
		{Recv: time.Second, Client: addr("192.0.2.53"), Name: "x1.dns-lab.org"},
	}
	// Target 2 also reached with a full name; target 1 never.
	hits := []scanner.Hit{mainHit("192.0.2.9", "192.0.2.53", 200)}
	r := Analyze(Input{
		Hits: hits, Partials: partials, Targets: targets,
		ScannerAddrs: []netip.Addr{scannerAddr}, Reg: reg, Geo: gdb,
	})
	if r.Qmin.ClientAddrs != 2 || r.Qmin.NeverFull != 1 {
		t.Fatalf("qmin = %+v", r.Qmin)
	}
	if r.Qmin.ASNs != 2 || r.Qmin.DetectedAnyway != 1 {
		t.Fatalf("qmin ASNs = %+v", r.Qmin)
	}
}

func TestAnalyzeCountries(t *testing.T) {
	reg, gdb, targets := fixture()
	hits := []scanner.Hit{mainHit("203.0.113.7", "198.51.100.53", 100)}
	r := Analyze(Input{
		Hits: hits, Targets: targets, ScannerAddrs: []netip.Addr{scannerAddr},
		Reg: reg, Geo: gdb,
	})
	if len(r.Countries) != 2 {
		t.Fatalf("countries = %+v", r.Countries)
	}
	for _, row := range r.Countries {
		switch row.Country {
		case "US":
			if row.ASes != 1 || row.ReachableASes != 1 || row.Targets != 2 || row.ReachableAddrs != 1 {
				t.Fatalf("US row = %+v", row)
			}
		case "BR":
			if row.ReachableASes != 0 {
				t.Fatalf("BR row = %+v", row)
			}
		}
	}
}

func TestAnalyzeWindowsWrapAdjustment(t *testing.T) {
	// Ports split across the top and bottom of the IANA range, from a
	// p0f-identified Windows host, must be adjusted to a small range.
	ports := []uint16{65530, 49160, 65533, 49155, 65534, 49152, 65535, 49158, 65531, 49161}
	adjusted := stats.AdjustWindowsPorts(ports)
	if rg := stats.RangeOfInts(adjusted); rg >= 2500 {
		t.Fatalf("adjusted range = %d, want < 2500", rg)
	}
	// Without the p0f label the adjustment must not apply in Analyze —
	// verified via the sample range landing in the full band.
	reg, gdb, targets := fixture()
	hits := []scanner.Hit{mainHit("203.0.113.7", "198.51.100.53", 100)}
	hits = append(hits, followUps("198.51.100.53", 100, ports)...)
	r := Analyze(Input{
		Hits: hits, Targets: targets, ScannerAddrs: []netip.Addr{scannerAddr},
		Reg: reg, Geo: gdb,
	})
	if len(r.Ports.Samples) != 1 {
		t.Fatalf("samples = %d", len(r.Ports.Samples))
	}
	if r.Ports.Samples[0].Range < 16000 {
		t.Fatalf("unlabeled sample range = %d; wrap adjustment must require the p0f Windows label", r.Ports.Samples[0].Range)
	}
}

func TestDefaultBandsPartition(t *testing.T) {
	bands := DefaultBands()
	if len(bands) != 8 {
		t.Fatalf("bands = %v", bands)
	}
	for r := 0; r <= 65536; r += 13 {
		if _, ok := stats.BandFor(bands, r); !ok {
			t.Fatalf("range %d not covered", r)
		}
	}
}

// DefaultBands derives once per process and hands out copies: each
// equals a fresh derivation from the §5.3.2 pools, a caller's edit stays
// its own, and concurrent callers (the shard workers) share nothing
// they can write.
func TestDefaultBandsIsAPrivateCopy(t *testing.T) {
	want := stats.DeriveBands([]stats.PoolSpec{
		{Label: "Windows DNS", Size: 2500},
		{Label: "FreeBSD", Size: 16383},
		{Label: "Linux", Size: 28232},
		{Label: "Full Port Range", Size: 64511},
	}, stats.SampleSize, 0.999, 65536)
	got := DefaultBands()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DefaultBands() = %v, want %v", got, want)
	}
	got[1].Hi, got[len(got)-1].Label = 7, "mutated"
	if again := DefaultBands(); !reflect.DeepEqual(again, want) {
		t.Fatalf("after a caller's edit, DefaultBands() = %v, want %v", again, want)
	}
	copies := make([][]stats.Band, 8)
	var wg sync.WaitGroup
	for i := range copies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := DefaultBands()
			b[1].Lo = i
			copies[i] = b
		}(i)
	}
	wg.Wait()
	for i, b := range copies {
		if b[1].Lo != i {
			t.Fatalf("copy %d was written by another caller: Lo = %d", i, b[1].Lo)
		}
		b[1].Lo = want[1].Lo
		if !reflect.DeepEqual(b, want) {
			t.Fatalf("copy %d = %v, want %v", i, b, want)
		}
	}
}

func TestComparePassive(t *testing.T) {
	zero := []PortSample{
		{Addr: addr("198.51.100.53")}, // same zero in 2018
		{Addr: addr("198.51.100.99")}, // had variance in 2018
		{Addr: addr("192.0.2.53")},    // absent in 2018
		{Addr: addr("192.0.2.99")},    // present but too few observations
	}
	passive := map[netip.Addr]ditl.PassiveSample{
		addr("198.51.100.53"): {Ports: []uint16{53, 53, 53, 53, 53, 53, 53, 53, 53, 53}},
		addr("198.51.100.99"): {Ports: []uint16{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}},
		addr("192.0.2.99"):    {Ports: []uint16{53, 53, 53}},
	}
	cmp := ComparePassive(zero, passive)
	if cmp.Compared != 2 || cmp.SameZero != 1 || cmp.HadVariance != 1 || cmp.Absent != 2 {
		t.Fatalf("comparison = %+v", cmp)
	}
}
