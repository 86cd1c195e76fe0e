package attack

import (
	"net/netip"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/oskernel"
	"repro/internal/packet"
	"repro/internal/resolver"
	"repro/internal/routing"
)

// ReflectionConfig parameterizes the DNS reflection/amplification
// attack of §1-§2: the attacker spoofs the VICTIM's address on queries
// to an open resolver, which sends its (much larger) responses to the
// victim. OSAV at the attacker's provider — not the victim's — is the
// countermeasure.
type ReflectionConfig struct {
	// Queries is the number of reflected queries.
	Queries int
	// AttackerOSAV deploys BCP 38 at the attacker's provider.
	AttackerOSAV bool
	// Seed drives randomness.
	Seed int64
}

// ReflectionResult reports the attack's traffic accounting.
type ReflectionResult struct {
	// QueryBytes is what the attacker transmitted.
	QueryBytes int
	// VictimBytes is what arrived at the victim.
	VictimBytes int
	// VictimPackets counts reflected responses.
	VictimPackets int
}

// Amplification is the bandwidth amplification factor.
func (r *ReflectionResult) Amplification() float64 {
	if r.QueryBytes == 0 {
		return 0
	}
	return float64(r.VictimBytes) / float64(r.QueryBytes)
}

// buildReflectionRegistry constructs the three-AS routing table of the
// reflection scenario. The registry is frozen once this returns
// (frozenshare enforces that all Add calls stay in build* contexts).
func buildReflectionRegistry(cfg ReflectionConfig) (*routing.Registry, *routing.AS, *routing.AS, *routing.AS, error) {
	reg := routing.NewRegistry()
	openAS := &routing.AS{ASN: 1, Prefixes: []netip.Prefix{netip.MustParsePrefix("22.1.0.0/16")}}
	victimAS := &routing.AS{ASN: 2, Prefixes: []netip.Prefix{netip.MustParsePrefix("22.2.0.0/16")}}
	attackAS := &routing.AS{ASN: 3, Prefixes: []netip.Prefix{netip.MustParsePrefix("22.3.0.0/16")},
		OSAV: cfg.AttackerOSAV}
	for _, as := range []*routing.AS{openAS, victimAS, attackAS} {
		if err := reg.Add(as); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return reg, openAS, victimAS, attackAS, nil
}

// RunReflection executes the reflection attack end to end.
func RunReflection(cfg ReflectionConfig) (*ReflectionResult, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 50
	}
	reg, openAS, victimAS, attackAS, err := buildReflectionRegistry(cfg)
	if err != nil {
		return nil, err
	}
	n := netsim.New(reg, netsim.Config{Seed: cfg.Seed})

	// Authoritative server with a fat TXT RRset — the amplification
	// payload (the role DNSSEC records played in [44]).
	authAddr := netip.MustParseAddr("22.1.0.10")
	authHost, err := n.Attach("amp-auth", openAS, authAddr)
	if err != nil {
		return nil, err
	}
	zone := authserver.NewZone("amp.example", dnswire.SOAData{
		MName: "ns.amp.example", RName: "x.amp.example", Serial: 1, Minimum: 300,
	})
	big := make([]string, 4)
	for i := range big {
		s := make([]byte, 255)
		for j := range s {
			s[j] = 'a' + byte((i+j)%26)
		}
		big[i] = string(s)
	}
	zone.AddRecord(dnswire.RR{
		Name: "big.amp.example", Type: dnswire.TypeTXT, Class: dnswire.ClassIN,
		TTL: 3600, Txt: big,
	})
	if _, err := authserver.New(authHost, zone); err != nil {
		return nil, err
	}

	// The unwitting open resolver.
	resAddr := netip.MustParseAddr("22.1.0.53")
	resHost, err := n.Attach("open-resolver", openAS, resAddr)
	if err != nil {
		return nil, err
	}
	resHost.OS = oskernel.UbuntuModern
	if _, err := resolver.New(resHost, []netip.Addr{authAddr}, resolver.Config{
		ACL:   resolver.ACL{Open: true},
		Ports: resolver.NewUniform(oskernel.PoolLinux, newRand(cfg.Seed+1)),
		Seed:  cfg.Seed + 2,
	}); err != nil {
		return nil, err
	}

	// The victim counts what lands on it.
	victimAddr := netip.MustParseAddr("22.2.0.80")
	victimHost, err := n.Attach("victim", victimAS, victimAddr)
	if err != nil {
		return nil, err
	}
	res := &ReflectionResult{}
	const victimPort = 33333
	err = victimHost.BindUDP(victimPort, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		res.VictimPackets++
		res.VictimBytes += len(payload)
	})
	if err != nil {
		return nil, err
	}

	attacker, err := n.Attach("attacker", attackAS, netip.MustParseAddr("22.3.0.66"))
	if err != nil {
		return nil, err
	}
	rng := newRand(cfg.Seed + 3)
	for i := 0; i < cfg.Queries; i++ {
		q := dnswire.NewQuery(uint16(rng.Intn(65536)), "big.amp.example", dnswire.TypeTXT)
		q.SetEDNS(4096) // classic amplification: raise the UDP ceiling
		payload, err := q.Pack()
		if err != nil {
			return nil, err
		}
		raw, err := packet.BuildUDP(victimAddr, resAddr, victimPort, 53, 64, payload)
		if err != nil {
			return nil, err
		}
		res.QueryBytes += len(payload)
		i := i
		n.Q.At(time.Duration(i)*5*time.Millisecond, func(time.Duration) {
			attacker.SendRaw(raw)
		})
	}
	n.Run()
	return res, nil
}
