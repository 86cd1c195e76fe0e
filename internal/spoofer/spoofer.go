// Package spoofer models the client-based SAV measurement system the
// paper compares against (§2): the CAIDA Spoofer project. A volunteer
// inside a network runs a client that
//
//  1. sends spoofed-source probes OUT to a measurement receiver — if
//     they arrive, the host network lacks origin-side SAV (OSAV/BCP 38);
//  2. receives probes sent BY the receiver with sources spoofed to look
//     internal to the client's network — if they arrive, the network
//     lacks destination-side SAV (DSAV).
//
// The package also reproduces Spoofer's structural limitation the paper
// improves on: a client behind NAT has no public address the receiver
// can send to, so inbound DSAV cannot be tested at all (§2: "a
// significant portion of the Spoofer clients are run behind NAT").
package spoofer

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
)

// Verdict is a three-valued measurement outcome.
type Verdict int

// Verdicts.
const (
	VerdictUntestable Verdict = iota // e.g. NAT prevents the test
	VerdictBlocked                   // SAV in place: probes filtered
	VerdictAllowed                   // no SAV: probes arrived
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictBlocked:
		return "blocked"
	case VerdictAllowed:
		return "allowed"
	default:
		return "untestable"
	}
}

// Result is one client session's outcome.
type Result struct {
	ASN  routing.ASN
	OSAV Verdict // outbound spoofing (BCP 38)
	DSAV Verdict // inbound spoofed-internal
	NAT  bool
}

// Receiver is the measurement server: a host with a well-known address
// that counts arriving probes by session nonce.
type Receiver struct {
	Host *netsim.Host
	Addr netip.Addr

	seen map[uint64]bool
}

// probePort is the spoofer protocol's UDP port.
const probePort = 54321

// NewReceiver binds a receiver to host at addr.
func NewReceiver(host *netsim.Host, addr netip.Addr) (*Receiver, error) {
	r := &Receiver{Host: host, Addr: addr, seen: make(map[uint64]bool)}
	err := host.BindUDP(probePort, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		if nonce, ok := decodeNonce(payload); ok {
			r.seen[nonce] = true
		}
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Saw reports whether a probe with the nonce arrived.
func (r *Receiver) Saw(nonce uint64) bool { return r.seen[nonce] }

func encodeNonce(nonce uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(nonce >> (8 * (7 - i)))
	}
	return b
}

func decodeNonce(b []byte) (uint64, bool) {
	if len(b) < 8 {
		return 0, false
	}
	var n uint64
	for i := 0; i < 8; i++ {
		n = n<<8 | uint64(b[i])
	}
	return n, true
}

// Client is a volunteer's measurement client inside a network.
type Client struct {
	Host *netsim.Host
	// Addr is the client's public address; invalid when behind NAT.
	Addr netip.Addr
	// NAT marks a client without a public address (§2's limitation).
	NAT bool

	recvNonces map[uint64]bool
}

// NewClient attaches client state to a host. addr is the host's public
// address, or the zero Addr for a NATed client.
func NewClient(host *netsim.Host, addr netip.Addr) (*Client, error) {
	c := &Client{Host: host, Addr: addr, NAT: !addr.IsValid(), recvNonces: make(map[uint64]bool)}
	if !c.NAT {
		err := host.BindUDP(probePort, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
			if nonce, ok := decodeNonce(payload); ok {
				c.recvNonces[nonce] = true
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Session runs the full Spoofer-style measurement between client and
// receiver and returns the verdicts. nonceBase distinguishes sessions.
func Session(n *netsim.Network, c *Client, r *Receiver, nonceBase uint64) (*Result, error) {
	res := &Result{ASN: c.Host.AS.ASN, NAT: c.NAT}

	// OSAV test: the client emits a probe whose source is outside its
	// network (the receiver's own prefix makes an unambiguous outside
	// source).
	outNonce := nonceBase + 1
	spoofSrc := r.Addr.Prev() // an address clearly not the client's
	raw, err := packet.BuildUDP(spoofSrc, r.Addr, probePort, probePort, 64, encodeNonce(outNonce))
	if err != nil {
		return nil, err
	}
	c.Host.SendRaw(raw)
	n.Run()
	if r.Saw(outNonce) {
		res.OSAV = VerdictAllowed
	} else {
		res.OSAV = VerdictBlocked
	}

	// DSAV test: the receiver sends the client a probe spoofed to look
	// internal to the client's network. Impossible behind NAT.
	if c.NAT {
		res.DSAV = VerdictUntestable
		return res, nil
	}
	inNonce := nonceBase + 2
	internalSrc, ok := internalSourceFor(c)
	if !ok {
		res.DSAV = VerdictUntestable
		return res, nil
	}
	raw, err = packet.BuildUDP(internalSrc, c.Addr, probePort, probePort, 64, encodeNonce(inNonce))
	if err != nil {
		return nil, err
	}
	r.Host.SendRaw(raw)
	n.Run()
	if c.recvNonces[inNonce] {
		res.DSAV = VerdictAllowed
	} else {
		res.DSAV = VerdictBlocked
	}
	return res, nil
}

// internalSourceFor picks an address inside the client's AS distinct
// from the client itself.
func internalSourceFor(c *Client) (netip.Addr, bool) {
	for _, p := range c.Host.AS.Prefixes {
		if p.Addr().Is4() != c.Addr.Is4() {
			continue
		}
		for j, n := 0, routing.SubnetCount(p, 2); j < n; j++ {
			s := routing.SubnetAt(p, j)
			for off := uint64(1); off < 20; off++ {
				a := routing.AddrAt(s, off)
				if a != c.Addr {
					return a, true
				}
			}
		}
	}
	return netip.Addr{}, false
}

// Campaign runs sessions from clients in every given AS and aggregates
// the Spoofer-style per-AS statistics the paper quotes from [32].
type Campaign struct {
	Results []*Result
}

// LacksDSAVShare is the fraction of testable (non-NAT) sessions that
// found DSAV absent — [32]'s 67%/74% statistic.
func (c *Campaign) LacksDSAVShare() float64 {
	tested, allowed := 0, 0
	for _, r := range c.Results {
		if r.DSAV == VerdictUntestable {
			continue
		}
		tested++
		if r.DSAV == VerdictAllowed {
			allowed++
		}
	}
	if tested == 0 {
		return 0
	}
	return float64(allowed) / float64(tested)
}

// UntestableShare is the fraction of sessions where NAT (or addressing)
// prevented the DSAV test.
func (c *Campaign) UntestableShare() float64 {
	if len(c.Results) == 0 {
		return 0
	}
	n := 0
	for _, r := range c.Results {
		if r.DSAV == VerdictUntestable {
			n++
		}
	}
	return float64(n) / float64(len(c.Results))
}

// ErrNoAS reports a client without AS attachment.
var ErrNoAS = fmt.Errorf("spoofer: client host has no AS")

// VerdictRewritten reports that outbound spoofed probes arrived but
// with their source rewritten by a NAT — Spoofer's third outbound
// outcome in the wild.
const VerdictRewritten Verdict = 3

// SessionThroughNAT runs a session for a volunteer behind a NAT
// gateway: the OSAV probe is emitted through the gateway (which
// rewrites its spoofed source), and the inbound DSAV test is untestable
// because the client has no public address.
func SessionThroughNAT(n *netsim.Network, inside *netsim.InsideHost, gwPublic netip.Addr, r *Receiver, nonceBase uint64) (*Result, error) {
	res := &Result{NAT: true, DSAV: VerdictUntestable}

	outNonce := nonceBase + 1
	spoofSrc := r.Addr.Prev()
	raw, err := packet.BuildUDP(spoofSrc, r.Addr, probePort, probePort, 64, encodeNonce(outNonce))
	if err != nil {
		return nil, err
	}
	inside.SendRaw(raw)
	n.Run()
	switch {
	case !r.Saw(outNonce):
		res.OSAV = VerdictBlocked
	case gwPublic != spoofSrc:
		// Arrived, but the NAT rewrote the claimed source to its public
		// address — which the receiver can compare against the payload's
		// claimed source.
		res.OSAV = VerdictRewritten
	default:
		res.OSAV = VerdictAllowed
	}
	return res, nil
}
