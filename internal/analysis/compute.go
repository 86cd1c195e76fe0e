package analysis

import (
	"net/netip"

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

	zeroASNs := make(map[routing.ASN]bool)
	zeroASNsClosed := make(map[routing.ASN]bool)
	lowASNs := make(map[routing.ASN]bool)

	// Partition kept only the direct responders' complete samples.
	for _, a := range sortedAddrsPorts(c.ports) {
		po, o := c.ports[a], reachable[a]
		raw := po.ports
		sample := PortSample{
			Addr: a, ASN: o.asn,
			RawPorts: raw, Open: o.open, P0f: po.p0f,
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

func sortedAddrsPorts(m map[netip.Addr]portObs) []netip.Addr {
	out := make([]netip.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sortAddrs(out)
	return out
}

func computeForwarding(c *Context, r *Report) {
	// Partition set the seen bits from the family-matched transport
	// follow-ups (§5.4); a target with neither bit resolved none.
	for a, o := range c.reachable {
		direct, forwarded := o.seen&seenDirect != 0, o.seen&seenForwarded != 0
		if !direct && !forwarded {
			continue
		}
		if a.Is4() {
			r.Forwarding.V4Resolved++
			if direct {
				r.Forwarding.V4Direct++
			}
			if forwarded {
				r.Forwarding.V4Forwarded++
			}
			if direct && forwarded {
				r.Forwarding.V4Both++
			}
		} else {
			r.Forwarding.V6Resolved++
			if direct {
				r.Forwarding.V6Direct++
			}
			if forwarded {
				r.Forwarding.V6Forwarded++
			}
			if direct && forwarded {
				r.Forwarding.V6Both++
			}
		}
	}
}

func computeMiddlebox(c *Context, r *Report) {
	// An AS is explained by the seen bits of any of its reachable
	// targets: a query from inside the AS first, else one from public
	// DNS (§3.6.1).
	seen := make(map[routing.ASN]uint8)
	for _, o := range c.reachable {
		seen[o.asn] |= o.seen
	}
	r.Middlebox.ReachableASes = len(seen)
	for _, bits := range seen {
		switch {
		case bits&seenFromAS != 0:
			r.Middlebox.DirectFromAS++
		case bits&seenPublic != 0:
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
