package chaos

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
)

func testInjector(seed uint64) *Injector {
	inj := NewInjector(Default(seed))
	inj.SetWindow(60 * time.Second)
	return inj
}

// TestDisabledInjectsNothing pins the zero-value contract: without
// Enabled, no draw fires regardless of rates.
func TestDisabledInjectsNothing(t *testing.T) {
	cfg := Default(1)
	cfg.Enabled = false
	inj := NewInjector(cfg)
	inj.SetWindow(60 * time.Second)
	raw, err := packet.BuildUDP(netip.MustParseAddr("30.1.0.1"),
		netip.MustParseAddr("30.2.0.1"), 1000, 53, 64, []byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := packet.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	as := &routing.AS{ASN: 1000}
	for asn := routing.ASN(1000); asn < 2000; asn++ {
		if inj.FlapActive(asn, time.Second) {
			t.Fatalf("AS %d flaps while disabled", asn)
		}
		if inj.Skew(asn) != 0 {
			t.Fatalf("AS %d skewed while disabled", asn)
		}
	}
	if _, ok := inj.CrashTime(netip.MustParseAddr("30.1.0.1")); ok {
		t.Fatal("crash scheduled while disabled")
	}
	if f := inj.Transit(time.Second, detrand.FoldBytes(raw), pkt, as, as); f != (netsim.TransitFault{}) {
		t.Fatalf("transit fault %+v while disabled", f)
	}
}

// TestScheduleIsReproducible pins determinism: two injectors with the
// same seed and window agree on every decision; a different seed picks
// a different fault set.
func TestScheduleIsReproducible(t *testing.T) {
	a, b, c := testInjector(7), testInjector(7), testInjector(8)
	sameAsA, diffFromA := 0, 0
	for asn := routing.ASN(1000); asn < 1500; asn++ {
		for _, now := range []time.Duration{0, 10 * time.Second, 30 * time.Second} {
			if a.FlapActive(asn, now) != b.FlapActive(asn, now) {
				t.Fatalf("seed-7 injectors disagree on flap(AS %d, %v)", asn, now)
			}
		}
		if a.Skew(asn) != b.Skew(asn) {
			t.Fatalf("seed-7 injectors disagree on skew(AS %d)", asn)
		}
		if a.Skew(asn) == c.Skew(asn) {
			sameAsA++
		} else {
			diffFromA++
		}
	}
	if diffFromA == 0 {
		t.Fatal("seed 8 produced the identical skew schedule as seed 7")
	}
}

// TestFlapScheduleShape verifies selection rate and outage windows: the
// flapping fraction tracks FlapRate, a selected AS is down for roughly
// FlapCount×FlapDuration of the window, and an unselected AS never.
func TestFlapScheduleShape(t *testing.T) {
	inj := testInjector(21)
	window := 60 * time.Second
	flapping := 0
	const nAS = 400
	for asn := routing.ASN(1000); asn < 1000+nAS; asn++ {
		downFor := time.Duration(0)
		step := 10 * time.Millisecond
		for now := time.Duration(0); now < window; now += step {
			if inj.FlapActive(asn, now) {
				downFor += step
			}
		}
		if downFor > 0 {
			flapping++
			// Two 2s outages; overlap can shorten, clipping at the window
			// end cannot lengthen.
			if max := time.Duration(inj.Config().FlapCount) * inj.Config().FlapDuration; downFor > max+step {
				t.Fatalf("AS %d down for %v, max possible %v", asn, downFor, max)
			}
		}
	}
	rate := float64(flapping) / nAS
	if rate < 0.10 || rate > 0.30 {
		t.Fatalf("flapping share %.2f, want ≈ FlapRate %.2f", rate, inj.Config().FlapRate)
	}
}

// TestEligibilityExemptsInfrastructure pins SetEligible: an exempt AS
// never flaps, never skews, and sees no per-packet faults.
func TestEligibilityExemptsInfrastructure(t *testing.T) {
	inj := testInjector(3)
	const infra routing.ASN = 20
	inj.SetEligible(func(asn routing.ASN) bool { return asn != infra })
	for now := time.Duration(0); now < 60*time.Second; now += 50 * time.Millisecond {
		if inj.FlapActive(infra, now) {
			t.Fatal("exempt AS flapped")
		}
	}
	if inj.Skew(infra) != 0 {
		t.Fatal("exempt AS skewed")
	}
}

// TestCrashRateTracksConfig samples many resolver addresses and checks
// the selected fraction and that crash times land inside the window.
func TestCrashRateTracksConfig(t *testing.T) {
	inj := testInjector(5)
	window := 60 * time.Second
	crashed := 0
	const n = 1000
	for i := 0; i < n; i++ {
		a := netip.AddrFrom4([4]byte{30, 1, byte(i >> 8), byte(i)})
		at, ok := inj.CrashTime(a)
		if !ok {
			continue
		}
		crashed++
		if at < 0 || at >= window {
			t.Fatalf("crash time %v outside window %v", at, window)
		}
		// Same address, same verdict.
		at2, ok2 := inj.CrashTime(a)
		if !ok2 || at2 != at {
			t.Fatalf("crash schedule not stable for %v", a)
		}
	}
	rate := float64(crashed) / n
	if rate < 0.10 || rate > 0.20 {
		t.Fatalf("crash share %.2f, want ≈ CrashRate %.2f", rate, inj.Config().CrashRate)
	}
}

// TestTransitSparesTCP pins the UDP-only rule: TCP segments cross
// un-duplicated, un-reordered, un-corrupted — only flap drops and the
// constant skew may touch them.
func TestTransitSparesTCP(t *testing.T) {
	inj := testInjector(11)
	src, dst := netip.MustParseAddr("30.1.0.1"), netip.MustParseAddr("30.2.0.1")
	syn := &packet.TCP{SrcPort: 40000, DstPort: 53, Seq: 1, SYN: true, Window: 65535}
	srcAS, dstAS := &routing.AS{ASN: 1000}, &routing.AS{ASN: 1001}
	skew := inj.Skew(dstAS.ASN)
	for i := 0; i < 2000; i++ {
		raw, err := packet.BuildTCP(src, dst, syn, 64, []byte{byte(i >> 8), byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := packet.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		f := inj.Transit(time.Duration(i)*time.Millisecond, detrand.FoldBytes(raw), pkt, srcAS, dstAS)
		if f.Duplicate || f.Corrupt {
			t.Fatalf("TCP segment faulted: %+v", f)
		}
		if !f.Drop && f.ExtraDelay != skew {
			t.Fatalf("TCP segment delayed beyond skew: %v vs %v", f.ExtraDelay, skew)
		}
	}
}

// TestTransitFaultsUDP checks that over many UDP packets each
// per-packet fault actually fires at roughly its configured rate.
func TestTransitFaultsUDP(t *testing.T) {
	inj := testInjector(13)
	src, dst := netip.MustParseAddr("30.1.0.1"), netip.MustParseAddr("30.2.0.1")
	// Pick non-flapping ASes so drops don't mask the per-packet draws.
	srcAS, dstAS := &routing.AS{ASN: 1000}, &routing.AS{ASN: 1001}
	for _, as := range []*routing.AS{srcAS, dstAS} {
		for inj.FlapActive(as.ASN, 0) || inj.FlapActive(as.ASN, 30*time.Second) {
			as.ASN++
		}
	}
	dups, corrupts, reorders := 0, 0, 0
	const n = 5000
	for i := 0; i < n; i++ {
		raw, err := packet.BuildUDP(src, dst, 40000, 53, 64, []byte{byte(i >> 8), byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := packet.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		f := inj.Transit(time.Duration(i)*time.Millisecond, detrand.FoldBytes(raw), pkt, srcAS, dstAS)
		if f.Drop {
			continue
		}
		if f.Duplicate {
			dups++
			if f.DupDelay <= 0 || f.DupDelay > inj.Config().DupDelay {
				t.Fatalf("dup delay %v outside (0, %v]", f.DupDelay, inj.Config().DupDelay)
			}
		}
		if f.Corrupt {
			corrupts++
			if f.CorruptBit < 0 {
				t.Fatalf("negative corrupt bit %d", f.CorruptBit)
			}
		}
		if f.ExtraDelay > inj.Skew(dstAS.ASN) {
			reorders++
		}
	}
	check := func(name string, got int, prob float64) {
		t.Helper()
		want := prob * n
		if float64(got) < want*0.5 || float64(got) > want*2 {
			t.Fatalf("%s fired %d times over %d packets, want ≈ %.0f", name, got, n, want)
		}
	}
	check("duplicate", dups, inj.Config().DupProb)
	check("corrupt", corrupts, inj.Config().CorruptProb)
	check("reorder", reorders, inj.Config().ReorderProb)
}
