package analysis

import (
	"net/netip"

	"repro/internal/authserver"
	"repro/internal/fingerprint"
	"repro/internal/geo"
	"repro/internal/routing"
	"repro/internal/scanner"
	"repro/internal/stats"
)

func computeHeadline(c *Context, r *Report) {
	reachable := c.reachable
	asReach4 := make(map[routing.ASN]bool)
	asReach6 := make(map[routing.ASN]bool)
	for _, n := range c.targets {
		r.V4.Targets += n.v4
		r.V6.Targets += n.v6
		if n.v4 > 0 {
			r.V4.ASes++
		}
		if n.v6 > 0 {
			r.V6.ASes++
		}
	}
	for a, o := range reachable {
		if a.Is4() {
			r.V4.ReachableAddrs++
			asReach4[o.asn] = true
		} else {
			r.V6.ReachableAddrs++
			asReach6[o.asn] = true
		}
	}
	r.V4.ReachableASes, r.V6.ReachableASes = len(asReach4), len(asReach6)
}

func computeCountries(c *Context, r *Report) {
	in, reachable := c.in, c.reachable
	if in.Geo == nil {
		return
	}
	perAS := make(map[routing.ASN]geo.ASStat, len(c.targets))
	for asn, n := range c.targets {
		perAS[asn] = geo.ASStat{Targets: n.v4 + n.v6}
	}
	for _, o := range reachable {
		st := perAS[o.asn]
		st.ReachableAddrs++
		st.Reachable = true
		perAS[o.asn] = st
	}
	r.Countries = in.Geo.Aggregate(perAS)
	r.Table1 = geo.TopByASCount(r.Countries, 10)
	r.Table2 = geo.TopByAddrFraction(r.Countries, 10)
}

var allCategories = []scanner.SourceCategory{
	scanner.CatOtherPrefix, scanner.CatSamePrefix, scanner.CatPrivate,
	scanner.CatDstAsSrc, scanner.CatLoopback,
}

func computeTable3(c *Context, r *Report) {
	reachable := c.reachable
	build := func(v6 bool) []CategoryRow {
		// Per-AS union of categories.
		asCats := make(map[routing.ASN]map[scanner.SourceCategory]bool)
		rows := make([]CategoryRow, len(allCategories))
		for i, c := range allCategories {
			rows[i].Category = c
		}
		inclASN := make(map[scanner.SourceCategory]map[routing.ASN]bool)
		for _, c := range allCategories {
			inclASN[c] = make(map[routing.ASN]bool)
		}
		for a, o := range reachable {
			if a.Is6() != v6 {
				continue
			}
			asn := o.asn
			if asCats[asn] == nil {
				asCats[asn] = make(map[scanner.SourceCategory]bool)
			}
			for i, c := range allCategories {
				if o.has(c) {
					rows[i].InclusiveAddrs++
					inclASN[c][asn] = true
					asCats[asn][c] = true
				}
			}
			if o.ncats() == 1 {
				for i, c := range allCategories {
					if o.has(c) {
						rows[i].ExclusiveAddrs++
					}
				}
			}
		}
		for i, c := range allCategories {
			rows[i].InclusiveASNs = len(inclASN[c])
		}
		for _, cats := range asCats {
			if len(cats) == 1 {
				for i, c := range allCategories {
					if cats[c] {
						rows[i].ExclusiveASNs++
					}
				}
			}
		}
		return rows
	}
	r.Table3.V4 = build(false)
	r.Table3.V6 = build(true)
}

func computeOpenClosed(c *Context, r *Report) {
	reachable := c.reachable
	asReach := make(map[routing.ASN]bool)
	asClosed := make(map[routing.ASN]bool)
	for _, o := range reachable {
		asReach[o.asn] = true
		if o.open {
			r.OpenClosed.Open++
		} else {
			r.OpenClosed.Closed++
			asClosed[o.asn] = true
		}
	}
	r.OpenClosed.ReachableASes = len(asReach)
	r.OpenClosed.ASesWithClosed = len(asClosed)
}

func computePorts(c *Context, r *Report) {
	in, reachable := c.in, c.reachable
	pr := &r.Ports
	pr.HistFullOpen = stats.NewHistogram(500, 65535)
	pr.HistFullClosed = stats.NewHistogram(500, 65535)
	pr.HistZoomOpen = stats.NewHistogram(50, 3000)
	pr.HistZoomClosed = stats.NewHistogram(50, 3000)
	pr.HistFullP0fWin = stats.NewHistogram(500, 65535)
	pr.HistFullP0fLin = stats.NewHistogram(500, 65535)
	pr.ZeroTopPorts = make(map[uint16]int)

	// Gather direct follow-up observations per target: UDP transport
	// queries whose source IP matches the probed target (§5.2: only
	// direct responders are analyzed). The SYN hit is copied by value —
	// a streamed hit does not survive its yield.
	ports := make(map[netip.Addr][]uint16)
	syn := make(map[netip.Addr]scanner.Hit)
	c.eachHit(func(h *scanner.Hit) {
		if h.Client != h.Dst || h.Lifetime > in.LifetimeThreshold {
			return
		}
		if _, ok := reachable[h.Dst]; !ok {
			return
		}
		switch {
		case (h.Kind == scanner.ProbeV4 || h.Kind == scanner.ProbeV6) && h.Transport == authserver.TransportUDP:
			ports[h.Dst] = append(ports[h.Dst], h.ClientPort)
		case h.Kind == scanner.ProbeTC && h.Transport == authserver.TransportTCP && h.SYN != nil:
			syn[h.Dst] = *h
		}
	})

	zeroASNs := make(map[routing.ASN]bool)
	zeroASNsClosed := make(map[routing.ASN]bool)
	lowASNs := make(map[routing.ASN]bool)

	for _, a := range sortedAddrsPorts(ports) {
		raw := ports[a]
		if len(raw) < in.FollowUpCount {
			continue // incomplete sample: not comparable (§5.2.2 spirit)
		}
		raw = raw[:in.FollowUpCount]
		o := reachable[a]
		sample := PortSample{
			Addr: a, ASN: o.asn,
			RawPorts: raw, Open: o.open,
		}
		if h, ok := syn[a]; ok {
			sample.P0f = in.FPDB.Classify(h.SYN)
		}
		adj := make([]int, len(raw))
		for k, p := range raw {
			adj[k] = int(p)
		}
		if sample.P0f == fingerprint.LabelWindows {
			adj = stats.AdjustWindowsPorts(raw)
		}
		sample.Ports = adj
		sample.Range = stats.RangeOfInts(adj)
		pr.Samples = append(pr.Samples, sample)

		if sample.Open {
			pr.HistFullOpen.Add(sample.Range)
			if sample.Range <= 3000 {
				pr.HistZoomOpen.Add(sample.Range)
			}
		} else {
			pr.HistFullClosed.Add(sample.Range)
			if sample.Range <= 3000 {
				pr.HistZoomClosed.Add(sample.Range)
			}
		}
		switch sample.P0f {
		case fingerprint.LabelWindows:
			pr.HistFullP0fWin.Add(sample.Range)
		case fingerprint.LabelLinux:
			pr.HistFullP0fLin.Add(sample.Range)
		}

		switch {
		case sample.Range == 0:
			pr.ZeroRange = append(pr.ZeroRange, sample)
			zeroASNs[sample.ASN] = true
			if !sample.Open {
				pr.ZeroRangeClosed++
				zeroASNsClosed[sample.ASN] = true
			}
			pr.ZeroTopPorts[raw[0]]++
			if raw[0] == 53 {
				pr.ZeroRangePort53++
			}
		case sample.Range <= 200:
			pr.LowRange = append(pr.LowRange, sample)
			lowASNs[sample.ASN] = true
			inc, wrap := stats.StrictlyIncreasing(sample.RawPorts)
			if inc && sample.Range > 0 {
				pr.LowRangeIncreasing++
				if wrap {
					pr.LowRangeWrapped++
				}
			}
			if stats.UniqueCount(sample.RawPorts) <= 7 {
				pr.LowRangeFewUnique++
			}
		}
	}
	pr.ZeroRangeASNs = len(zeroASNs)
	pr.ZeroASNsWithClosed = len(zeroASNsClosed)
	pr.LowRangeASNs = len(lowASNs)

	// Table 4.
	pr.Table4 = make([]BandRow, len(in.Bands))
	for i, b := range in.Bands {
		pr.Table4[i].Band = b
	}
	for _, s := range pr.Samples {
		for i := range pr.Table4 {
			if pr.Table4[i].Band.Contains(s.Range) {
				row := &pr.Table4[i]
				row.Total++
				if s.Open {
					row.Open++
				} else {
					row.Closed++
				}
				switch s.P0f {
				case fingerprint.LabelWindows:
					row.P0fWindows++
				case fingerprint.LabelLinux:
					row.P0fLinux++
				}
				break
			}
		}
	}
}

func sortedAddrsPorts(m map[netip.Addr][]uint16) []netip.Addr {
	out := make([]netip.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sortAddrs(out)
	return out
}

func computeForwarding(c *Context, r *Report) {
	in, reachable := c.in, c.reachable
	type fw struct{ direct, forwarded bool }
	perTarget := make(map[netip.Addr]*fw)
	c.eachHit(func(h *scanner.Hit) {
		// §5.4: the zone is dual-stack, so direct/forwarded is judged on
		// the family-matching transport follow-ups only — a dual-stack
		// resolver probed at its v6 address answers v4-zone queries from
		// its v4 address, which must not be mistaken for forwarding.
		if h.Dst.Is4() && h.Kind != scanner.ProbeV4 {
			return
		}
		if h.Dst.Is6() && h.Kind != scanner.ProbeV6 {
			return
		}
		// Leaf-zone queries only: a v4-only (v6-only) zone is served by a
		// v4-only (v6-only) server, so genuine transport-probe queries
		// arrive over that family. Referral lookups at the dual-stack
		// parent can arrive over the other family and must not count.
		if h.Kind == scanner.ProbeV4 && !h.Client.Is4() {
			return
		}
		if h.Kind == scanner.ProbeV6 && !h.Client.Is6() {
			return
		}
		if _, ok := reachable[h.Dst]; !ok || h.Lifetime > in.LifetimeThreshold {
			return
		}
		f := perTarget[h.Dst]
		if f == nil {
			f = &fw{}
			perTarget[h.Dst] = f
		}
		if h.Client == h.Dst {
			f.direct = true
		} else {
			f.forwarded = true
		}
	})
	for a, f := range perTarget {
		if a.Is4() {
			r.Forwarding.V4Resolved++
			if f.direct {
				r.Forwarding.V4Direct++
			}
			if f.forwarded {
				r.Forwarding.V4Forwarded++
			}
			if f.direct && f.forwarded {
				r.Forwarding.V4Both++
			}
		} else {
			r.Forwarding.V6Resolved++
			if f.direct {
				r.Forwarding.V6Direct++
			}
			if f.forwarded {
				r.Forwarding.V6Forwarded++
			}
			if f.direct && f.forwarded {
				r.Forwarding.V6Both++
			}
		}
	}
}

func computeMiddlebox(c *Context, r *Report) {
	in, reachable := c.in, c.reachable
	reachAS := make(map[routing.ASN]bool)
	directAS := make(map[routing.ASN]bool)
	publicAS := make(map[routing.ASN]bool)
	for _, o := range reachable {
		reachAS[o.asn] = true
	}
	c.eachHit(func(h *scanner.Hit) {
		o, ok := reachable[h.Dst]
		if !ok || h.Lifetime > in.LifetimeThreshold {
			return
		}
		asn := o.asn
		// The registry's roles are the single source of truth: a client
		// in public-DNS space (AS.PublicService) explains the relay;
		// third-party upstream space carries no role and stays in
		// "Unexplained", as §3.6.1 requires.
		if origin := in.Reg.OriginOf(h.Client); origin != nil {
			if origin.ASN == asn {
				directAS[asn] = true
			}
			if origin.PublicService {
				publicAS[asn] = true
			}
		}
	})
	r.Middlebox.ReachableASes = len(reachAS)
	for asn := range reachAS {
		switch {
		case directAS[asn]:
			r.Middlebox.DirectFromAS++
		case publicAS[asn]:
			r.Middlebox.ViaPublicDNS++
		default:
			r.Middlebox.Unexplained++
		}
	}
}

func computeQmin(c *Context, r *Report) {
	// The raw partials were folded into the client/AS sets per shard
	// (Partition); only the reachable cross-reference happens here.
	reachable := c.reachable
	r.Qmin.ClientAddrs = len(c.qminClients)
	for a := range c.qminClients {
		if _, ok := reachable[a]; !ok {
			r.Qmin.NeverFull++
		}
	}
	reachASN := make(map[routing.ASN]bool)
	for _, o := range reachable {
		reachASN[o.asn] = true
	}
	r.Qmin.ASNs = len(c.qminASNs)
	for asn := range c.qminASNs {
		if reachASN[asn] {
			r.Qmin.DetectedAnyway++
		}
	}
}

func computeLifetime(c *Context, r *Report) {
	reachable := c.reachable
	lateOnlyAS := make(map[routing.ASN]bool)
	reachASN := make(map[routing.ASN]bool)
	for _, o := range reachable {
		reachASN[o.asn] = true
	}
	for a, asn := range c.late {
		if _, ok := reachable[a]; ok {
			continue // also seen timely: not excluded
		}
		r.Lifetime.OverThresholdAddrs++
		lateOnlyAS[asn] = true
	}
	r.Lifetime.OverThresholdASes = len(lateOnlyAS)
	for asn := range lateOnlyAS {
		if reachASN[asn] {
			r.Lifetime.RecoveredASes++
		}
	}
}
