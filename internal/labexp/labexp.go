// Package labexp reproduces the paper's controlled lab experiments:
//
//   - §5.3.2/§5.3.3, Table 5: install each DNS software on each OS,
//     issue 10,000 recursive queries with unique names, and observe the
//     source-port pool used for recursive-to-authoritative queries;
//   - §5.3.2, Figure 3a: split those observations into samples of 10
//     and histogram the sample ranges against the Beta(9,2) model;
//   - §5.5, Table 6: send destination-as-source and loopback-source
//     packets to hosts running each OS and record which kernels deliver
//     them to user space.
//
// Unlike the rest of the system, these experiments use dedicated
// minimal worlds — one resolver, one client, one authoritative chain —
// mirroring the paper's isolated lab network.
package labexp

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/authserver"
	"repro/internal/detrand"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/oskernel"
	"repro/internal/packet"
	"repro/internal/resolver"
	"repro/internal/routing"
	"repro/internal/stats"
)

// Salt constants for the labexp package's detrand domains (band 91+;
// the saltbands analyzer in internal/lint registers every `salt* = N +
// iota` block and rejects overlaps between packages).
const (
	// saltLabPorts keys the lab resolver's port-allocator stream.
	saltLabPorts = 91 + iota
)

// PortPoolResult is one Table 5 row plus the raw observations.
type PortPoolResult struct {
	Software resolver.Software
	OS       *oskernel.Profile
	// Queries is the number of client queries issued.
	Queries int
	// Ports are the observed source ports in arrival order.
	Ports []uint16
	// Distinct is the number of distinct ports observed.
	Distinct int
	// Min and Max bound the observed ports.
	Min, Max uint16
	// Pool is the classified behaviour (Table 5's right column).
	Pool string
	// SampleRanges are the ranges of consecutive 10-port samples
	// (Windows-wrap-adjusted), Figure 3a's input.
	SampleRanges []int
}

// labWorld is the minimal lab network.
type labWorld struct {
	net    *netsim.Network
	client *netsim.Host
	res    *resolver.Resolver
	auth   *authserver.Server

	clientAddr netip.Addr
	resAddr    netip.Addr
}

func buildLab(sw resolver.Software, osProf *oskernel.Profile, seed int64) (*labWorld, error) {
	reg := routing.NewRegistry()
	labAS := &routing.AS{ASN: 1, Prefixes: []netip.Prefix{netip.MustParsePrefix("10.10.0.0/16")}}
	// A private lab network: everything in one AS, no border filtering —
	// matching the paper's isolated environment.
	if err := reg.Add(labAS); err != nil {
		return nil, err
	}
	n := netsim.New(reg, netsim.Config{Seed: seed, BaseLatency: time.Millisecond, JitterMax: time.Millisecond})

	rootAddr := netip.MustParseAddr("10.10.0.1")
	rootHost, err := n.Attach("lab-auth", labAS, rootAddr)
	if err != nil {
		return nil, err
	}
	soa := dnswire.SOAData{MName: "ns.lab", RName: "root.lab", Serial: 1, Minimum: 60}
	// The lab authoritative server serves the root directly, so every
	// unique query name induces exactly one recursive-to-authoritative
	// query (nothing cacheable between queries).
	rootZone := authserver.NewZone(dnswire.Root, soa)
	auth, err := authserver.New(rootHost, rootZone)
	if err != nil {
		return nil, err
	}

	resAddr := netip.MustParseAddr("10.10.1.53")
	resHost, err := n.Attach("lab-resolver", labAS, resAddr)
	if err != nil {
		return nil, err
	}
	resHost.OS = osProf
	rng := detrand.Rand(uint64(seed), saltLabPorts)
	res, err := resolver.New(resHost, []netip.Addr{rootAddr}, resolver.Config{
		ACL:   resolver.ACL{Open: true},
		Ports: resolver.NewAllocator(sw, osProf, rng),
		Seed:  seed + 2,
	})
	if err != nil {
		return nil, err
	}

	clientAddr := netip.MustParseAddr("10.10.2.10")
	client, err := n.Attach("lab-client", labAS, clientAddr)
	if err != nil {
		return nil, err
	}
	return &labWorld{
		net: n, client: client, res: res, auth: auth,
		clientAddr: clientAddr, resAddr: resAddr,
	}, nil
}

// RunPortPool runs the Table 5 experiment for one (software, OS) pair:
// queries unique names through a freshly installed resolver and
// characterizes the source-port pool observed at the authoritative
// server.
func RunPortPool(sw resolver.Software, osProf *oskernel.Profile, queries int, seed int64) (*PortPoolResult, error) {
	if queries <= 0 {
		queries = 10000
	}
	lab, err := buildLab(sw, osProf, seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < queries; i++ {
		name := dnswire.Name(fmt.Sprintf("q%07d.lab-exp.example", i))
		q := dnswire.NewQuery(uint16(i), name, dnswire.TypeA)
		payload, err := q.Pack()
		if err != nil {
			return nil, err
		}
		i := i
		lab.net.Q.At(time.Duration(i)*10*time.Millisecond, func(time.Duration) {
			lab.client.SendUDP(lab.clientAddr, 5353, lab.resAddr, 53, payload)
		})
	}
	lab.net.Run()

	r := &PortPoolResult{Software: sw, OS: osProf, Queries: queries}
	for _, e := range lab.auth.Log {
		if e.Client == lab.resAddr && e.Transport == authserver.TransportUDP {
			r.Ports = append(r.Ports, e.ClientPort)
		}
	}
	if len(r.Ports) == 0 {
		return nil, fmt.Errorf("labexp: no recursive queries observed for %v on %v", sw, osProf)
	}
	distinct := make(map[uint16]bool)
	r.Min, r.Max = r.Ports[0], r.Ports[0]
	for _, p := range r.Ports {
		distinct[p] = true
		if p < r.Min {
			r.Min = p
		}
		if p > r.Max {
			r.Max = p
		}
	}
	r.Distinct = len(distinct)
	r.Pool = classifyPool(r, osProf)

	for i := 0; i+stats.SampleSize <= len(r.Ports); i += stats.SampleSize {
		sample := stats.AdjustWindowsPorts(r.Ports[i : i+stats.SampleSize])
		r.SampleRanges = append(r.SampleRanges, stats.RangeOfInts(sample))
	}
	return r, nil
}

// classifyPool names the observed behaviour like Table 5's right
// column. For randomized allocators the pool size is estimated from the
// observed span: for n uniform draws from a pool of size s, the
// expected span is s·(n−1)/(n+1), so ŝ = span·(n+1)/(n−1).
func classifyPool(r *PortPoolResult, osProf *oskernel.Profile) string {
	switch {
	case r.Distinct == 1:
		if r.Min == 53 {
			return "port 53 exclusively"
		}
		return "1 port, > 1023, selected at startup"
	case r.Distinct <= 16 && r.Queries >= 10*r.Distinct:
		return fmt.Sprintf("%d ports, selected at startup", r.Distinct)
	}
	n := len(r.Ports)
	span := spanWithWrap(r.Ports)
	sHat := float64(span) * float64(n+1) / float64(n-1)
	within := func(target int) bool {
		return sHat > 0.85*float64(target) && sHat < 1.15*float64(target)
	}
	switch {
	case within(oskernel.WindowsDNSPoolSize) && r.Min >= 49152:
		return "2,500 contiguous ports (with wrapping), selected at startup"
	case within(oskernel.PoolFull.Size()) && r.Min < 4000:
		return "1024-65535"
	case osProf != nil && within(osProf.Ephemeral.Size()) && r.Min >= osProf.Ephemeral.Lo:
		return "OS defaults"
	default:
		return fmt.Sprintf("pool %d-%d (%d distinct)", r.Min, r.Max, r.Distinct)
	}
}

// spanWithWrap measures the port span after Windows wrap adjustment.
func spanWithWrap(ports []uint16) int {
	return stats.RangeOfInts(stats.AdjustWindowsPorts(ports))
}

// Table5Row pairs a configuration with its observed pool.
type Table5Row struct {
	Config string
	Pool   string
}

// RunTable5 reproduces Table 5: each modeled software's default port
// behaviour, observed through the lab pipeline.
func RunTable5(queriesPerConfig int, seed int64) ([]Table5Row, error) {
	configs := []struct {
		label string
		sw    resolver.Software
		os    *oskernel.Profile
	}{
		{"BIND 9.5.0", resolver.SoftwareBIND950, oskernel.UbuntuModern},
		{"BIND 9.5.2-9.8.8", resolver.SoftwareBIND952, oskernel.UbuntuModern},
		{"BIND 9.9.13-9.16.0", resolver.SoftwareBIND9Modern, oskernel.UbuntuModern},
		{"Knot Resolver 3.2.1", resolver.SoftwareKnot, oskernel.UbuntuModern},
		{"Unbound 1.9.0", resolver.SoftwareUnbound, oskernel.UbuntuModern},
		{"PowerDNS Rec. 4.2.0", resolver.SoftwarePowerDNS, oskernel.UbuntuModern},
		{"Windows DNS 2003, 2003 R2, 2008", resolver.SoftwareWindowsDNSOld, oskernel.WindowsLegacy},
		{"Windows DNS 2008 R2-2019", resolver.SoftwareWindowsDNS, oskernel.WindowsModern},
	}
	rows := make([]Table5Row, 0, len(configs))
	for i, c := range configs {
		res, err := RunPortPool(c.sw, c.os, queriesPerConfig, seed+int64(i)*101)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{Config: c.label, Pool: res.Pool})
	}
	return rows, nil
}

// Fig3aSeries is one labeled histogram series of Figure 3a.
type Fig3aSeries struct {
	Label    string
	PoolSize int
	Ranges   []int
	HistFull *stats.Histogram // 0-65535, bin 500
	HistZoom *stats.Histogram // 0-3000, bin 50
}

// RunFigure3a reproduces Figure 3a: sample ranges for the three
// OS-default pools plus the full-port-range configuration, with enough
// queries for queriesPerConfig/10 samples each.
func RunFigure3a(queriesPerConfig int, seed int64) ([]Fig3aSeries, error) {
	configs := []struct {
		label string
		pool  int
		sw    resolver.Software
		os    *oskernel.Profile
	}{
		{"Windows DNS", 2500, resolver.SoftwareWindowsDNS, oskernel.WindowsModern},
		{"FreeBSD", 16383, resolver.SoftwareBIND9Modern, oskernel.FreeBSD12},
		{"Linux", 28232, resolver.SoftwareBIND9Modern, oskernel.UbuntuModern},
		{"Full Port Range", 64511, resolver.SoftwareUnbound, oskernel.UbuntuModern},
	}
	out := make([]Fig3aSeries, 0, len(configs))
	for i, c := range configs {
		res, err := RunPortPool(c.sw, c.os, queriesPerConfig, seed+int64(i)*103)
		if err != nil {
			return nil, err
		}
		s := Fig3aSeries{
			Label: c.label, PoolSize: c.pool, Ranges: res.SampleRanges,
			HistFull: stats.NewHistogram(500, 65535),
			HistZoom: stats.NewHistogram(50, 3000),
		}
		for _, rg := range res.SampleRanges {
			s.HistFull.Add(rg)
			if rg <= 3000 {
				s.HistZoom.Add(rg)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// AcceptanceRow is one Table 6 row: which spoofed-source packets an OS
// kernel delivered to a listening socket, observed end to end.
type AcceptanceRow struct {
	OS                     *oskernel.Profile
	DSv4, LBv4, DSv6, LBv6 bool
}

// buildSpoofMatrixRegistry constructs the sender/target routing table
// of the Table 6 experiment; the registry is frozen once built.
func buildSpoofMatrixRegistry() (*routing.Registry, *routing.AS, *routing.AS, error) {
	reg := routing.NewRegistry()
	senderAS := &routing.AS{ASN: 1, Prefixes: []netip.Prefix{netip.MustParsePrefix("11.1.0.0/16")}}
	targetAS := &routing.AS{ASN: 2, Prefixes: []netip.Prefix{
		netip.MustParsePrefix("11.2.0.0/16"), netip.MustParsePrefix("2a02:1::/48"),
	}}
	if err := reg.Add(senderAS); err != nil {
		return nil, nil, nil, err
	}
	if err := reg.Add(targetAS); err != nil {
		return nil, nil, nil, err
	}
	return reg, senderAS, targetAS, nil
}

// RunSpoofMatrix reproduces Table 6 by sending destination-as-source
// and loopback-source packets across a filterless border to one host
// per OS profile and recording socket-level delivery.
func RunSpoofMatrix(seed int64) ([]AcceptanceRow, error) {
	reg, senderAS, targetAS, err := buildSpoofMatrixRegistry()
	if err != nil {
		return nil, err
	}
	n := netsim.New(reg, netsim.Config{Seed: seed})
	sender, err := n.Attach("sender", senderAS, netip.MustParseAddr("11.1.0.10"))
	if err != nil {
		return nil, err
	}

	profiles := []*oskernel.Profile{
		oskernel.UbuntuModern, oskernel.UbuntuLegacy, oskernel.FreeBSD12,
		oskernel.WindowsModern, oskernel.WindowsLegacy,
	}
	rows := make([]AcceptanceRow, len(profiles))
	type probe struct {
		row  *AcceptanceRow
		mark func(r *AcceptanceRow)
	}
	delivered := make(map[netip.Addr]*probe)
	for i, p := range profiles {
		rows[i].OS = p
		a4 := routing.AddrAt(netip.MustParsePrefix("11.2.0.0/16"), uint64(10+i))
		a6 := routing.AddrAt(netip.MustParsePrefix("2a02:1::/48"), uint64(10+i))
		host, err := n.Attach(p.Name, targetAS, a4, a6)
		if err != nil {
			return nil, err
		}
		host.OS = p
		row := &rows[i]
		err = host.BindUDP(53, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
			key := dst
			if pr, ok := delivered[key]; ok {
				pr.mark(pr.row)
				delete(delivered, key)
			}
		})
		if err != nil {
			return nil, err
		}

		// Four probes per OS, identified by (dst, marker) pairs sent
		// sequentially so delivery attribution is unambiguous.
		send := func(src, dst netip.Addr, mark func(*AcceptanceRow)) {
			delivered[dst] = &probe{row: row, mark: mark}
			if raw, err := buildRaw(src, dst); err == nil {
				sender.SendRaw(raw)
			}
			n.Run()
			delete(delivered, dst)
		}
		send(a4, a4, func(r *AcceptanceRow) { r.DSv4 = true })
		send(netip.MustParseAddr("127.0.0.1"), a4, func(r *AcceptanceRow) { r.LBv4 = true })
		send(a6, a6, func(r *AcceptanceRow) { r.DSv6 = true })
		send(netip.MustParseAddr("::1"), a6, func(r *AcceptanceRow) { r.LBv6 = true })
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].OS.Name < rows[j].OS.Name })
	return rows, nil
}

func buildRaw(src, dst netip.Addr) ([]byte, error) {
	q := dnswire.NewQuery(1, "spoof.test.example", dnswire.TypeA)
	payload, err := q.Pack()
	if err != nil {
		return nil, err
	}
	return packet.BuildUDP(src, dst, 31000, 53, 64, payload)
}
