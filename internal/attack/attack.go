// Package attack simulates the Kaminsky-style cache poisoning attack
// that motivates the paper's case study (§5.1-§5.2): an off-path
// attacker who can induce recursive-to-authoritative queries — here,
// exactly because the victim's network lacks DSAV and the resolver's
// ACL trusts spoofed-internal sources — races forged responses against
// the genuine authoritative answer. The attacker must guess the
// resolver's (source port, transaction ID) pair; a resolver with no
// source-port randomization leaves only the 16-bit transaction ID
// (§5.2.1: "the search space is reduced from 2^32 to 2^16").
//
// The simulation runs the real pipeline: the trigger query is a
// spoofed-source UDP packet, forged responses are raw packets spoofing
// the authoritative server's address, and success means the victim's
// cache actually serves the attacker's record afterward.
package attack

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/authserver"
	"repro/internal/detrand"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/oskernel"
	"repro/internal/packet"
	"repro/internal/resolver"
	"repro/internal/routing"
)

// Salt constants for the attack package's detrand domains (band 81+;
// the saltbands analyzer in internal/lint registers every `salt* = N +
// iota` block and rejects overlaps between packages).
const (
	// saltAttackRace keys the attacker's per-run draw stream (trigger
	// txn IDs, forgery port/ID guesses).
	saltAttackRace = 81 + iota
	// saltAllocStartup keys the victim allocator RNG built by newRand.
	saltAllocStartup
)

// Config parameterizes an attack run.
type Config struct {
	// Ports is the victim resolver's source-port allocator.
	Ports resolver.PortAllocator
	// Races is the number of Kaminsky rounds (each triggers a query for
	// a fresh name, so negative caching never blocks the attack).
	Races int
	// ForgeriesPerRace is the number of forged responses sent per round.
	ForgeriesPerRace int
	// PortGuessLo/PortGuessHi bound the attacker's port guesses
	// (inclusive-exclusive): an attacker who observed a fixed port
	// guesses only it; against a randomizing resolver the guesses
	// spread over the inferred pool.
	PortGuessLo, PortGuessHi uint16
	// VictimDSAV deploys DSAV at the victim's border: the attack's
	// trigger queries never arrive (the paper's remedy).
	VictimDSAV bool
	// Victim0x20 enables DNS 0x20 case randomization on the victim:
	// forged responses must also echo the randomized case.
	Victim0x20 bool
	// Seed drives all randomness.
	Seed int64
}

// Result summarizes an attack run.
type Result struct {
	// Poisoned reports whether any race succeeded.
	Poisoned bool
	// SuccessRace is the 1-based round that succeeded (0 if none).
	SuccessRace int
	// Forgeries is the total number of forged responses sent.
	Forgeries int
	// VictimQueries counts the trigger queries sent.
	VictimQueries int
	// InducedQueries counts recursive-to-authoritative queries actually
	// observed at the genuine server — zero when DSAV blocks the
	// trigger.
	InducedQueries int
}

// world wires the attack scenario: a victim AS without DSAV hosting a
// closed resolver, the genuine authoritative server for the attacked
// zone, and the attacker in a third AS without OSAV.
type world struct {
	net      *netsim.Network
	res      *resolver.Resolver
	attacker *netsim.Host
	induced  int // queries the genuine authoritative server received

	victimAddr   netip.Addr
	authAddr     netip.Addr
	attackerAddr netip.Addr
	spoofClient  netip.Addr // internal source the attacker masquerades as
	evilAddr     netip.Addr // address the forged answers point at
}

func buildWorld(cfg Config) (*world, error) {
	reg := routing.NewRegistry()
	victimAS := &routing.AS{ASN: 1, Prefixes: []netip.Prefix{netip.MustParsePrefix("20.1.0.0/16")}, DSAV: cfg.VictimDSAV}
	authAS := &routing.AS{ASN: 2, Prefixes: []netip.Prefix{netip.MustParsePrefix("20.2.0.0/16")}}
	attackAS := &routing.AS{ASN: 3, Prefixes: []netip.Prefix{netip.MustParsePrefix("20.3.0.0/16")}} // no OSAV
	for _, as := range []*routing.AS{victimAS, authAS, attackAS} {
		if err := reg.Add(as); err != nil {
			return nil, err
		}
	}
	n := netsim.New(reg, netsim.Config{Seed: cfg.Seed})

	w := &world{
		net:          n,
		victimAddr:   netip.MustParseAddr("20.1.0.53"),
		authAddr:     netip.MustParseAddr("20.2.0.53"),
		attackerAddr: netip.MustParseAddr("20.3.0.66"),
		spoofClient:  netip.MustParseAddr("20.1.7.7"), // inside the victim AS
		evilAddr:     netip.MustParseAddr("20.3.0.99"),
	}

	authHost, err := n.Attach("bank-auth", authAS, w.authAddr)
	if err != nil {
		return nil, err
	}
	soa := dnswire.SOAData{MName: "ns.bank.example", RName: "hostmaster.bank.example", Serial: 1, Minimum: 300}
	zone := authserver.NewZone("bank.example", soa)
	zone.Wildcard = true // every name resolves (Kaminsky uses random subdomains)
	auth, err := authserver.New(authHost, zone)
	if err != nil {
		return nil, err
	}
	auth.OnQuery = func(authserver.LogEntry) { w.induced++ }

	victimHost, err := n.Attach("victim-resolver", victimAS, w.victimAddr)
	if err != nil {
		return nil, err
	}
	victimHost.OS = oskernel.UbuntuModern
	// Closed resolver trusting its own network: the spoofed-internal
	// trigger passes the ACL only because the border lacks DSAV.
	w.res, err = resolver.New(victimHost, []netip.Addr{w.authAddr}, resolver.Config{
		ACL:     resolver.ACL{Allowed: []netip.Prefix{netip.MustParsePrefix("20.1.0.0/16")}},
		Ports:   cfg.Ports,
		Use0x20: cfg.Victim0x20,
		Seed:    cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	// Seed the victim with the delegation so every race is a single
	// direct query to the authoritative (the realistic steady state).
	w.attacker, err = n.Attach("attacker", attackAS, w.attackerAddr, w.evilAddr)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Run executes the attack.
func Run(cfg Config) (*Result, error) {
	if cfg.Races <= 0 {
		cfg.Races = 32
	}
	if cfg.ForgeriesPerRace <= 0 {
		cfg.ForgeriesPerRace = 1024
	}
	if cfg.PortGuessHi <= cfg.PortGuessLo {
		return nil, fmt.Errorf("attack: empty port guess pool")
	}
	w, err := buildWorld(cfg)
	if err != nil {
		return nil, err
	}
	rng := detrand.Rand(uint64(cfg.Seed), saltAttackRace)
	res := &Result{}

	for race := 1; race <= cfg.Races && !res.Poisoned; race++ {
		target := dnswire.Name(fmt.Sprintf("r%06d.bank.example", race))

		// 1. Trigger: spoofed-internal query induces the victim's
		//    recursive query (the §5.1 infiltration step).
		q := dnswire.NewQuery(uint16(rng.Intn(65536)), target, dnswire.TypeA)
		payload, err := q.Pack()
		if err != nil {
			return nil, err
		}
		raw, err := packet.BuildUDP(w.spoofClient, w.victimAddr, 40000, 53, 64, payload)
		if err != nil {
			return nil, err
		}
		w.attacker.SendRaw(raw)
		res.VictimQueries++

		// 2. Race: forged responses spoofing the authoritative server,
		//    spread across the round-trip window between the victim's
		//    upstream query and the genuine answer.
		for i := 0; i < cfg.ForgeriesPerRace; i++ {
			forged := dnswire.NewQuery(uint16(rng.Intn(65536)), target, dnswire.TypeA).Reply()
			forged.AA = true
			forged.Answer = []dnswire.RR{{
				Name: target, Type: dnswire.TypeA, Class: dnswire.ClassIN,
				TTL: 86400, Addr: w.evilAddr,
			}}
			fp, err := forged.Pack()
			if err != nil {
				return nil, err
			}
			guessPort := cfg.PortGuessLo
			if span := int(cfg.PortGuessHi) - int(cfg.PortGuessLo); span > 1 {
				guessPort += uint16(rng.Intn(span))
			}
			fraw, err := packet.BuildUDP(w.authAddr, w.victimAddr, 53, guessPort, 64, fp)
			if err != nil {
				return nil, err
			}
			at := 15*time.Millisecond + time.Duration(rng.Int63n(int64(25*time.Millisecond)))
			w.net.Q.After(at, func(time.Duration) { w.attacker.SendRaw(fraw) })
			res.Forgeries++
		}

		// 3. Let the race and the genuine resolution complete.
		w.net.Run()

		// 4. Check: did the victim cache the attacker's record? Query it
		//    from an allowed (spoofed-internal) client and watch where
		//    the answer points. The answer goes to the spoofed client,
		//    so inspect the cache through a second query's upstream
		//    behaviour instead: a poisoned cache answers without querying
		//    the authoritative again.
		if w.poisonedFor(target, rng) {
			res.Poisoned = true
			res.SuccessRace = race
		}
	}
	res.InducedQueries = w.induced
	return res, nil
}

// poisonedFor checks whether target now resolves to the attacker's
// address inside the victim's cache, using an attacker-controlled
// listener to receive the verification answer.
func (w *world) poisonedFor(target dnswire.Name, rng *rand.Rand) bool {
	// Query the victim from the attacker's own (ACL-refused) address
	// would be rejected; instead verify via a spoofed-internal query
	// whose answer we can't see — so count the authoritative server's
	// queries: if the verification query for the same name does NOT
	// reach the authoritative server but a poisoned record exists, the cache
	// answered. To observe the answer content directly, the attacker
	// spoofs the verification query from its own prefix... which the ACL
	// refuses. The reliable in-simulation check: issue the verification
	// query spoofed-internal and diff the authoritative query count —
	// a cache hit proves the forged record was accepted (the genuine
	// record would equally be cached, but it carries a different TTL and
	// the forged answer only enters the cache if (port, ID) matched).
	before := w.induced
	q := dnswire.NewQuery(uint16(rng.Intn(65536)), target, dnswire.TypeA)
	payload, _ := q.Pack()
	raw, _ := packet.BuildUDP(w.spoofClient, w.victimAddr, 40001, 53, 64, payload)
	w.attacker.SendRaw(raw)
	w.net.Run()
	cacheHit := w.induced == before
	if !cacheHit {
		return false
	}
	// Cache hit: decide whether the cached record is the forged one.
	// The genuine wildcard answer points at 192.0.2.200 (authserver's
	// synthesized address); the forged one at evilAddr. Read it through
	// the resolver's public behaviour: spoof a query and sniff the
	// response to the spoofed client... the spoofed client is a black
	// hole, so instead consult the resolver's answer directly via a
	// (test-only) cache probe.
	rrs, ok := w.res.CachedAnswer(target, dnswire.TypeA)
	if !ok {
		return false
	}
	for _, rr := range rrs {
		if rr.Addr == w.evilAddr {
			return true
		}
	}
	return false
}
