package resolver

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// FuzzClientQuery sends arbitrary datagrams as client queries to a
// resolver in the test hierarchy, with an open or a closed ACL, strict
// or lenient QNAME minimization, and with or without 0x20. The resolver
// must not panic and must reply at most once; every reply must decode
// as a response, and it never answers or refuses more queries than it
// received. Once the network drains, nothing is pending and every
// record sits on its free list once: a job for the query it admitted,
// and one attempt record if it queried upstream at all, since the one
// job's attempts never overlap and each gives its record back as it
// ends.
func FuzzClientQuery(f *testing.F) {
	for _, q := range []struct {
		name dnswire.Name
		typ  dnswire.Type
	}{
		{"www.dns-lab.org", dnswire.TypeA},
		{"sub.1000.src.dst.asn.kw.dns-lab.org", dnswire.TypeA},
		{"4000.probe.tc.dns-lab.org", dnswire.TypeAAAA},
	} {
		payload, err := dnswire.NewQuery(0x1234, q.name, q.typ).Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, false, false, false)
		f.Add(payload, true, true, true)
	}
	resp, err := dnswire.NewQuery(7, "www.dns-lab.org", dnswire.TypeA).Reply().Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resp, false, true, false)
	f.Add([]byte{0x12, 0x34, 0x01, 0x00, 0x00, 0x01}, false, false, true)
	f.Add([]byte(nil), true, false, false)

	f.Fuzz(func(t *testing.T, data []byte, closed, lenient, use0x20 bool) {
		acl := ACL{Open: true}
		if closed {
			acl = ACL{Allowed: []netip.Prefix{prefix("198.51.100.0/24")}} // refuses the client
		}
		h := buildHierarchy(t, Config{ACL: acl, QnameMin: true, QnameMinLenient: lenient, Use0x20: use0x20, Seed: 59})
		h.authZone.AddAddr("www.dns-lab.org", addr("192.0.9.100"), 300)

		replies := 0
		h.client.BindUDP(5353, func(now time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
			replies++
			if m, err := dnswire.Unpack(payload); err != nil || !m.QR {
				t.Fatalf("reply %x is not a decodable response (err %v)", payload, err)
			}
		})
		h.client.SendUDP(addr("192.0.2.10"), 5353, addr("198.51.100.53"), 53, data)
		h.net.Run()

		if replies > 1 {
			t.Fatalf("one datagram drew %d replies", replies)
		}
		s := h.res.Stats
		if s.Responded+s.Refused > s.ClientQueries {
			t.Fatalf("stats %+v: more replies than client queries", s)
		}
		checkRecords(t, h.res, int(s.ClientQueries-s.Refused), int(min(s.UpstreamQueries, 1)))
	})
}
