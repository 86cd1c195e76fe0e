package attack

import (
	"net/netip"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
)

// ZonePoisonConfig parameterizes the DNS zone-poisoning attack
// (Korczyński et al., cited by the paper as [29]): an authoritative
// server accepts RFC 2136 dynamic updates from internal sources only,
// and a spoofed-internal UPDATE rewrites a production record.
type ZonePoisonConfig struct {
	// VictimDSAV deploys DSAV at the victim's border.
	VictimDSAV bool
	// Seed drives simulator randomness.
	Seed int64
}

// ZonePoisonResult reports the attack's outcome.
type ZonePoisonResult struct {
	// Poisoned reports whether the production record now points at the
	// attacker.
	Poisoned bool
	// OriginalAddr and FinalAddr are www's A record before and after.
	OriginalAddr, FinalAddr netip.Addr
}

// buildZonePoisonRegistry constructs the victim/attacker routing table
// of the zone-poisoning scenario; the registry is frozen once built.
func buildZonePoisonRegistry(cfg ZonePoisonConfig) (*routing.Registry, *routing.AS, *routing.AS, error) {
	reg := routing.NewRegistry()
	victimAS := &routing.AS{
		ASN: 1, Prefixes: []netip.Prefix{netip.MustParsePrefix("21.1.0.0/16")},
		DSAV: cfg.VictimDSAV,
	}
	attackAS := &routing.AS{ASN: 2, Prefixes: []netip.Prefix{netip.MustParsePrefix("21.2.0.0/16")}}
	if err := reg.Add(victimAS); err != nil {
		return nil, nil, nil, err
	}
	if err := reg.Add(attackAS); err != nil {
		return nil, nil, nil, err
	}
	return reg, victimAS, attackAS, nil
}

// RunZonePoison executes the zone-poisoning attack end to end: the
// attacker sends a spoofed-internal UPDATE deleting www's A RRset and
// inserting its own address, then the victim zone is inspected through
// a normal query.
func RunZonePoison(cfg ZonePoisonConfig) (*ZonePoisonResult, error) {
	reg, victimAS, attackAS, err := buildZonePoisonRegistry(cfg)
	if err != nil {
		return nil, err
	}
	n := netsim.New(reg, netsim.Config{Seed: cfg.Seed})

	authAddr := netip.MustParseAddr("21.1.0.53")
	wwwAddr := netip.MustParseAddr("21.1.0.80")
	evilAddr := netip.MustParseAddr("21.2.0.99")
	spoofSrc := netip.MustParseAddr("21.1.9.9") // "internal" DHCP client

	authHost, err := n.Attach("victim-auth", victimAS, authAddr)
	if err != nil {
		return nil, err
	}
	zone := authserver.NewZone("corp.example", dnswire.SOAData{
		MName: "ns.corp.example", RName: "hostmaster.corp.example", Serial: 1, Minimum: 300,
	})
	// The vulnerable configuration [29] found in the wild: dynamic
	// updates accepted from the internal network (for DHCP), no TSIG.
	zone.AllowUpdateFrom = victimAS.Prefixes
	zone.AddAddr("www.corp.example", wwwAddr, 300)
	if _, err := authserver.New(authHost, zone); err != nil {
		return nil, err
	}

	attacker, err := n.Attach("attacker", attackAS, evilAddr)
	if err != nil {
		return nil, err
	}

	// The spoofed-internal UPDATE: delete www's A RRset, add evil.
	upd := dnswire.NewUpdate(7, "corp.example")
	upd.AddUpdateDeleteRRset("www.corp.example", dnswire.TypeA)
	upd.AddUpdateRecord(dnswire.RR{
		Name: "www.corp.example", Type: dnswire.TypeA, TTL: 300, Addr: evilAddr,
	})
	payload, err := upd.Pack()
	if err != nil {
		return nil, err
	}
	raw, err := packet.BuildUDP(spoofSrc, authAddr, 40000, 53, 64, payload)
	if err != nil {
		return nil, err
	}
	attacker.SendRaw(raw)
	n.Run()

	// Inspect the zone through a legitimate query (from the attacker's
	// real address: queries, unlike updates, are answered for anyone).
	res := &ZonePoisonResult{OriginalAddr: wwwAddr}
	q := dnswire.NewQuery(8, "www.corp.example", dnswire.TypeA)
	qp, err := q.Pack()
	if err != nil {
		return nil, err
	}
	err = attacker.BindUDP(5353, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		m, err := dnswire.Unpack(payload)
		if err != nil || !m.QR {
			return
		}
		for _, rr := range m.Answer {
			if rr.Type == dnswire.TypeA {
				res.FinalAddr = rr.Addr
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := attacker.SendUDP(evilAddr, 5353, authAddr, 53, qp); err != nil {
		return nil, err
	}
	n.Run()
	res.Poisoned = res.FinalAddr == evilAddr
	return res, nil
}
