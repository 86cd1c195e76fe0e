// Package contact implements the operator-contact discovery of §5.2.1:
// to responsibly disclose a resolver's vulnerability, the researchers
// performed a reverse DNS (PTR) lookup of the resolver's address, then
// looked up the SOA record for the returned name's domain and used its
// RNAME (responsible name) field as a contact address.
package contact

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// Client issues synchronous DNS queries from a host through a resolver,
// driving the simulated network to completion for each query. It is
// intended for post-survey lookups (the event queue must otherwise be
// idle).
type Client struct {
	Host     *netsim.Host
	From     netip.Addr
	Resolver netip.Addr
	// Timeout bounds the virtual time spent per query (default 30s).
	Timeout time.Duration

	port uint16
	id   uint16
}

// Query resolves (name, type) and returns the response message.
func (c *Client) Query(name dnswire.Name, typ dnswire.Type) (*dnswire.Message, error) {
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	c.port++
	c.id += 7
	port := 32000 + c.port%30000
	var got *dnswire.Message
	err := c.Host.BindUDP(port, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
		if m, err := dnswire.Unpack(payload); err == nil && m.QR && m.ID == c.id {
			got = m
		}
	})
	if err != nil {
		return nil, err
	}
	defer c.Host.UnbindUDP(port)

	q := dnswire.NewQuery(c.id, name, typ)
	payload, err := q.Pack()
	if err != nil {
		return nil, err
	}
	if err := c.Host.SendUDP(c.From, port, c.Resolver, 53, payload); err != nil {
		return nil, err
	}
	c.Host.Network().RunFor(c.Timeout)
	if got == nil {
		return nil, fmt.Errorf("contact: no response for %s %v", name, typ)
	}
	return got, nil
}

// Info is a discovered operator contact.
type Info struct {
	// PTR is the resolver's reverse name.
	PTR dnswire.Name
	// Domain is the domain whose SOA supplied the contact.
	Domain dnswire.Name
	// RName is the SOA responsible-name field.
	RName dnswire.Name
	// Email is RName converted to mailbox form (first label becomes the
	// local part).
	Email string
}

// Lookup discovers the operator contact for a resolver address: PTR
// lookup, then an SOA walk up the returned name's domain.
func Lookup(c *Client, addr netip.Addr) (*Info, error) {
	resp, err := c.Query(dnswire.ReverseName(addr), dnswire.TypePTR)
	if err != nil {
		return nil, err
	}
	var ptr dnswire.Name
	for _, rr := range resp.Answer {
		if rr.Type == dnswire.TypePTR {
			ptr = rr.Target
		}
	}
	if ptr == "" {
		return nil, fmt.Errorf("contact: no PTR record for %v (rcode %v)", addr, resp.RCode)
	}

	for dom := ptr.Parent(); dom != dnswire.Root; dom = dom.Parent() {
		resp, err := c.Query(dom, dnswire.TypeSOA)
		if err != nil {
			continue
		}
		for _, rr := range resp.Answer {
			if rr.Type == dnswire.TypeSOA && rr.SOA != nil {
				return &Info{
					PTR: ptr, Domain: dom, RName: rr.SOA.RName,
					Email: rnameToEmail(rr.SOA.RName),
				}, nil
			}
		}
	}
	return nil, fmt.Errorf("contact: no SOA found above %s", ptr)
}

// rnameToEmail converts an SOA RNAME to mailbox form per RFC 1035 §8:
// the first label is the local part.
func rnameToEmail(rname dnswire.Name) string {
	labels := rname.Labels()
	if len(labels) < 2 {
		return string(rname)
	}
	return labels[0] + "@" + strings.Join(labels[1:], ".")
}
