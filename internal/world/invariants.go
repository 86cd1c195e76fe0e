package world

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/packet"
	"repro/internal/routing"
)

// InvariantReport summarizes what the invariant checker examined and any
// violations it found. Reports from sharded worlds merge with Add; all
// fields are order-independent sums, so the merged report is identical
// at any shard count.
type InvariantReport struct {
	// DeliveriesChecked counts packets the delivery hook examined.
	DeliveriesChecked uint64
	// ResponsesChecked counts DNS responses matched against a recorded
	// query transaction (unsolicited responses — which spoofed-source
	// probing legitimately produces — are not counted).
	ResponsesChecked uint64
	// CachePuts / CacheServes / CacheFlushes count resolver cache events.
	CachePuts    uint64
	CacheServes  uint64
	CacheFlushes uint64
	// ViolationCount is the total number of violations; Violations holds
	// the first few, formatted.
	ViolationCount uint64
	Violations     []string
}

// maxViolationDetail bounds how many formatted violations are retained.
const maxViolationDetail = 16

// Add merges o into r.
func (r *InvariantReport) Add(o InvariantReport) {
	r.DeliveriesChecked += o.DeliveriesChecked
	r.ResponsesChecked += o.ResponsesChecked
	r.CachePuts += o.CachePuts
	r.CacheServes += o.CacheServes
	r.CacheFlushes += o.CacheFlushes
	r.ViolationCount += o.ViolationCount
	for _, v := range o.Violations {
		if len(r.Violations) < maxViolationDetail {
			r.Violations = append(r.Violations, v)
		}
	}
}

// Ok reports whether no invariant was violated.
func (r *InvariantReport) Ok() bool { return r.ViolationCount == 0 }

// Invariants re-asserts the simulation's safety properties on every
// delivered packet and every resolver cache event:
//
//	(a) no spoofed-source packet is delivered across a border whose
//	    policy (DSAV, bogon filtering) says it must have been dropped;
//	(b) DNS transaction IDs are conserved query→response: a delivered
//	    response whose (client, client port, question) matches a recorded
//	    query must carry one of that transaction's recorded IDs;
//	(c) resolver cache entries are never served past their TTL and never
//	    survive a crash-induced flush.
//
// One Invariants instance attaches to one world (single-threaded), via
// netsim's delivery hook and the resolvers' cache observer; sharded
// surveys merge the per-world reports.
type Invariants struct {
	report InvariantReport
	// qids holds each transaction's first recorded ID, and moreQIDs any
	// other ID recorded for it: most transactions see one.
	qids      map[txnKey]uint16
	moreQIDs  map[txnID]struct{}
	lastFlush map[netip.Addr]time.Duration
}

// txnKey identifies a DNS transaction independent of its ID: who asked,
// from which port, whom they asked, and (hashed, case-folded) for what.
// The server port is implicitly 53 — only port-53 traffic is checked.
// The addresses are kept as 16 bytes each, so the checker's maps hold
// no pointer; an IPv4 address and its IPv4-mapped IPv6 form have the
// same bytes, and v4 (the packet's IP version) tells them apart.
type txnKey struct {
	client, server [16]byte
	qnameHash      uint64
	clientPort     uint16
	v4             bool
}

// newTxnKey is the key of a transaction between client and server,
// the two addresses of one packet.
func newTxnKey(client netip.Addr, clientPort uint16, server netip.Addr, qnameHash uint64) txnKey {
	return txnKey{client: client.As16(), server: server.As16(), qnameHash: qnameHash, clientPort: clientPort, v4: client.Is4()}
}

// txnID is one recorded ID of a transaction.
type txnID struct {
	key txnKey
	id  uint16
}

// NewInvariants returns an empty checker.
func NewInvariants() *Invariants {
	return &Invariants{
		qids:      make(map[txnKey]uint16),
		moreQIDs:  make(map[txnID]struct{}),
		lastFlush: make(map[netip.Addr]time.Duration),
	}
}

// Report returns the accumulated report.
func (v *Invariants) Report() InvariantReport { return v.report }

func (v *Invariants) violate(format string, args ...any) {
	v.report.ViolationCount++
	if len(v.report.Violations) < maxViolationDetail {
		v.report.Violations = append(v.report.Violations, fmt.Sprintf(format, args...))
	}
}

// OnDelivery is the netsim.DeliveryHook: invariants (a) and (b). pkt is
// the network's, valid only during the call, so the checker keeps
// addresses, ports and hashes, never the packet.
//
//doors:scratch pkt
func (v *Invariants) OnDelivery(now time.Duration, pkt *packet.Packet, dstAS *routing.AS, crossedBorder bool) {
	v.report.DeliveriesChecked++

	// (a) Re-assert border policy on the delivered packet: a filtering
	// border must never have let this source through.
	if crossedBorder && dstAS != nil {
		src := pkt.Src()
		if dstAS.FilterBogons && routing.IsSpecialPurpose(src) {
			v.violate("border: special-purpose source %v delivered across AS%d border that filters bogons", src, dstAS.ASN)
		}
		if dstAS.DSAV && dstAS.Originates(src) {
			v.violate("border: internal source %v delivered across AS%d border that enforces DSAV", src, dstAS.ASN)
		}
	}

	// (b) DNS transaction ID conservation, UDP port-53 traffic only.
	if pkt.UDP == nil {
		return
	}
	u := pkt.UDP
	if u.SrcPort != 53 && u.DstPort != 53 {
		return
	}
	payload := pkt.Data
	if len(payload) < 12 {
		return
	}
	id := uint16(payload[0])<<8 | uint16(payload[1])
	isResponse := payload[2]&0x80 != 0
	qh, ok := qnameHash(payload)
	if !ok {
		return
	}
	if !isResponse {
		if u.DstPort != 53 {
			return
		}
		key := newTxnKey(pkt.Src(), u.SrcPort, pkt.Dst(), qh)
		if first, recorded := v.qids[key]; !recorded {
			v.qids[key] = id
		} else if first != id {
			v.moreQIDs[txnID{key, id}] = struct{}{}
		}
		return
	}
	if u.SrcPort != 53 {
		return
	}
	key := newTxnKey(pkt.Dst(), u.DstPort, pkt.Src(), qh)
	first, recorded := v.qids[key]
	if !recorded {
		// Unsolicited: spoofed-source probing legitimately lands
		// responses on hosts that never (observably) asked, and
		// middleboxes answer from their own address. Not a transaction
		// we can check.
		return
	}
	v.report.ResponsesChecked++
	if id == first {
		return
	}
	if _, more := v.moreQIDs[txnID{key, id}]; !more {
		v.violate("txn: response id %#04x from %v to %v:%d matches no id recorded for its question",
			id, pkt.Src(), pkt.Dst(), u.DstPort)
	}
}

// CachePut implements resolver.CacheObserver.
func (v *Invariants) CachePut(owner netip.Addr, insertedAt, expiry time.Duration) {
	v.report.CachePuts++
}

// CacheServe implements resolver.CacheObserver: invariant (c).
func (v *Invariants) CacheServe(owner netip.Addr, insertedAt, expiry, now time.Duration) {
	v.report.CacheServes++
	if now >= expiry {
		v.violate("cache: %v served an entry at %v at-or-past its expiry %v", owner, now, expiry)
	}
	if lf, flushed := v.lastFlush[owner]; flushed && insertedAt < lf {
		v.violate("cache: %v served an entry inserted at %v that predates its crash flush at %v", owner, insertedAt, lf)
	}
}

// CacheFlush implements resolver.CacheObserver.
func (v *Invariants) CacheFlush(owner netip.Addr, now time.Duration) {
	v.report.CacheFlushes++
	v.lastFlush[owner] = now
}

// qnameHash case-folds and hashes the first question name of a packed
// DNS message (FNV-1a over lowercased labels). Question names are never
// compression-packed (nothing precedes them to point at); a pointer or
// truncated name yields ok=false and the packet is skipped.
func qnameHash(payload []byte) (uint64, bool) {
	qdcount := uint16(payload[4])<<8 | uint16(payload[5])
	if qdcount == 0 {
		return 0, false
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	i := 12
	for {
		if i >= len(payload) {
			return 0, false
		}
		l := int(payload[i])
		if l == 0 {
			return h, true
		}
		if l&0xc0 != 0 {
			return 0, false
		}
		i++
		if i+l > len(payload) {
			return 0, false
		}
		for _, c := range payload[i : i+l] {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			h = (h ^ uint64(c)) * prime64
		}
		h = (h ^ uint64('.')) * prime64
		i += l
	}
}
