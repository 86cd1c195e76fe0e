package spoofer

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/ditl"
	"repro/internal/netsim"
	"repro/internal/routing"
)

func addr(s string) netip.Addr     { return netip.MustParseAddr(s) }
func prefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// build attaches a receiver AS plus one client AS with the given
// filtering posture.
func build(t *testing.T, clientOSAV, clientDSAV, nat bool) (*netsim.Network, *Client, *Receiver) {
	t.Helper()
	reg := routing.NewRegistry()
	rxAS := &routing.AS{ASN: 1, Prefixes: []netip.Prefix{prefix("30.1.0.0/16")}}
	clAS := &routing.AS{ASN: 2, Prefixes: []netip.Prefix{prefix("30.2.0.0/16")},
		OSAV: clientOSAV, DSAV: clientDSAV}
	if err := reg.Add(rxAS); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(clAS); err != nil {
		t.Fatal(err)
	}
	n := netsim.New(reg, netsim.Config{Seed: 3})
	rxHost, err := n.Attach("receiver", rxAS, addr("30.1.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(rxHost, addr("30.1.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	clAddr := addr("30.2.0.10")
	clHost, err := n.Attach("client", clAS, clAddr)
	if err != nil {
		t.Fatal(err)
	}
	if nat {
		clAddr = netip.Addr{}
	}
	cl, err := NewClient(clHost, clAddr)
	if err != nil {
		t.Fatal(err)
	}
	return n, cl, rx
}

func TestSessionNoFiltering(t *testing.T) {
	n, cl, rx := build(t, false, false, false)
	res, err := Session(n, cl, rx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.OSAV != VerdictAllowed {
		t.Errorf("OSAV = %v, want allowed (no BCP 38)", res.OSAV)
	}
	if res.DSAV != VerdictAllowed {
		t.Errorf("DSAV = %v, want allowed", res.DSAV)
	}
}

func TestSessionOSAVBlocksOutbound(t *testing.T) {
	n, cl, rx := build(t, true, false, false)
	res, err := Session(n, cl, rx, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.OSAV != VerdictBlocked {
		t.Errorf("OSAV = %v, want blocked", res.OSAV)
	}
	if res.DSAV != VerdictAllowed {
		t.Errorf("DSAV = %v: OSAV at the client must not affect inbound", res.DSAV)
	}
}

func TestSessionDSAVBlocksInbound(t *testing.T) {
	n, cl, rx := build(t, false, true, false)
	res, err := Session(n, cl, rx, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.DSAV != VerdictBlocked {
		t.Errorf("DSAV = %v, want blocked", res.DSAV)
	}
}

func TestSessionNATUntestable(t *testing.T) {
	n, cl, rx := build(t, false, false, true)
	res, err := Session(n, cl, rx, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.DSAV != VerdictUntestable {
		t.Errorf("DSAV = %v, want untestable behind NAT (§2)", res.DSAV)
	}
	if res.OSAV != VerdictAllowed {
		t.Errorf("OSAV = %v: outbound test works from behind NAT", res.OSAV)
	}
}

// TestCampaignAgreesWithGroundTruth runs Spoofer sessions from one
// volunteer per AS of a ditl population and compares the inferred
// no-DSAV share with the generation ground truth — the [32] vs. paper
// consistency check of §2.
func TestCampaignAgreesWithGroundTruth(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 61, ASes: 300})
	reg := routing.NewRegistry()
	rxAS := &routing.AS{ASN: 1, Prefixes: []netip.Prefix{prefix("30.1.0.0/16")}}
	if err := reg.Add(rxAS); err != nil {
		t.Fatal(err)
	}
	truthNoDSAV := 0
	for _, as := range pop.ASes {
		if err := reg.Add(&routing.AS{
			ASN: as.ASN, Prefixes: as.Prefixes(), DSAV: as.DSAV, OSAV: as.OSAV,
		}); err != nil {
			t.Fatal(err)
		}
		if !as.DSAV {
			truthNoDSAV++
		}
	}
	n := netsim.New(reg, netsim.Config{Seed: 62})
	rxHost, err := n.Attach("receiver", rxAS, addr("30.1.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(rxHost, addr("30.1.0.1"))
	if err != nil {
		t.Fatal(err)
	}

	camp := &Campaign{}
	for i, as := range pop.ASes {
		// One volunteer per AS; a third run behind NAT (the paper's
		// complaint about Spoofer coverage).
		pub := routing.AddrAt(routing.SubnetAt(as.V4Prefixes[0], 0), 200)
		host, err := n.Attach(fmt.Sprintf("vol-%d", i), reg.AS(as.ASN), pub)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			pub = netip.Addr{} // NATed volunteer
		}
		cl, err := NewClient(host, pub)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Session(n, cl, rx, uint64(i)*10)
		if err != nil {
			t.Fatal(err)
		}
		camp.Results = append(camp.Results, res)
	}

	if got := camp.UntestableShare(); got < 0.30 || got > 0.37 {
		t.Errorf("untestable share = %.2f, want ≈1/3 (NATed volunteers)", got)
	}
	inferred := camp.LacksDSAVShare()
	truth := float64(truthNoDSAV) / float64(len(pop.ASes))
	if diff := inferred - truth; diff < -0.05 || diff > 0.05 {
		t.Errorf("Spoofer-inferred no-DSAV share %.2f vs ground truth %.2f", inferred, truth)
	}
	// Per-session verdicts must match each AS's ground truth exactly
	// (testable sessions only).
	for i, res := range camp.Results {
		as := pop.ASes[i]
		if res.DSAV == VerdictUntestable {
			continue
		}
		wantAllowed := !as.DSAV
		if (res.DSAV == VerdictAllowed) != wantAllowed {
			t.Fatalf("AS %v: DSAV verdict %v vs ground truth dsav=%v", as.ASN, res.DSAV, as.DSAV)
		}
	}
}

func TestSessionThroughNATRewrites(t *testing.T) {
	reg := routing.NewRegistry()
	rxAS := &routing.AS{ASN: 1, Prefixes: []netip.Prefix{prefix("30.1.0.0/16")}}
	clAS := &routing.AS{ASN: 2, Prefixes: []netip.Prefix{prefix("30.2.0.0/16")}}
	reg.Add(rxAS)
	reg.Add(clAS)
	n := netsim.New(reg, netsim.Config{Seed: 9})
	rxHost, err := n.Attach("receiver", rxAS, addr("30.1.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(rxHost, addr("30.1.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	gwHost, err := n.Attach("cpe", clAS, addr("30.2.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := netsim.NewNATGateway(gwHost, addr("30.2.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	inside, err := gw.Attach(addr("192.168.1.2"))
	if err != nil {
		t.Fatal(err)
	}

	res, err := SessionThroughNAT(n, inside, gw.Public(), rx, 700)
	if err != nil {
		t.Fatal(err)
	}
	if res.OSAV != VerdictRewritten {
		t.Errorf("OSAV = %v, want rewritten (NAT un-spoofs outbound probes)", res.OSAV)
	}
	if res.DSAV != VerdictUntestable {
		t.Errorf("DSAV = %v, want untestable behind NAT", res.DSAV)
	}
	if gw.RewrittenSpoofs == 0 {
		t.Error("gateway did not count the rewritten spoof")
	}
}
