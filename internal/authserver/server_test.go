package authserver

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
)

var (
	srvAddr    = netip.MustParseAddr("192.0.2.53")
	clientAddr = netip.MustParseAddr("192.0.2.10")
)

// serverNet attaches a server for example (www.example has an address)
// and the always-truncate tc.example, and a client, to one AS.
func serverNet(t *testing.T) (*netsim.Network, *Server, *netsim.Host) {
	t.Helper()
	reg := routing.NewRegistry()
	as := &routing.AS{ASN: 64500, Prefixes: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")}}
	if err := reg.Add(as); err != nil {
		t.Fatal(err)
	}
	n := netsim.New(reg, netsim.Config{Seed: 1})
	srvHost, err := n.Attach("ns", as, srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	main := NewZone("example", testSOA())
	main.AddAddr("www.example", netip.MustParseAddr("192.0.2.80"), 300)
	tc := NewZone("tc.example", testSOA())
	tc.AlwaysTruncate = true
	srv, err := New(srvHost, main, tc)
	if err != nil {
		t.Fatal(err)
	}
	client, err := n.Attach("client", as, clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	return n, srv, client
}

func pack(t *testing.T, m *dnswire.Message) []byte {
	t.Helper()
	out, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerObservesQueriesInArrivalOrder sends a response and an
// undecodable datagram, then a query the always-truncate zone answers
// with TC, which the client retries over TCP. OnQuery sees the UDP
// query and then the TCP one, each with its arrival time, client
// endpoint, server address, question and transport, and the TCP one
// with its SYN; it sees neither the response nor the junk.
func TestServerObservesQueriesInArrivalOrder(t *testing.T) {
	n, srv, client := serverNet(t)
	var seen []LogEntry
	srv.OnQuery = func(e LogEntry) { seen = append(seen, e) }
	const name = dnswire.Name("x.tc.example")
	query := pack(t, dnswire.NewQuery(7, name, dnswire.TypeAAAA))
	datagrams, queryAt := 0, time.Duration(-1)
	n.SetDeliveryHook(func(now time.Duration, pkt *packet.Packet, _ *routing.AS, _ bool) {
		if pkt.UDP != nil && pkt.Dst() == srvAddr {
			datagrams++
			if bytes.Equal(pkt.Data, query) {
				queryAt = now
			}
		}
	})
	var answered bool
	err := client.BindUDP(5300, func(_ time.Duration, _ netip.Addr, _ uint16, _ netip.Addr, _ uint16, payload []byte) {
		r, err := dnswire.Unpack(payload)
		if err != nil || !r.TC {
			t.Errorf("UDP reply %+v, %v; want truncated", r, err)
			return
		}
		_, err = client.DialTCP(clientAddr, 5301, srvAddr, 53, func(c *netsim.TCPConn) {
			c.OnData = func(time.Duration, []byte) { answered = true }
			framed := binary.BigEndian.AppendUint16(nil, uint16(len(query)))
			if err := c.Send(append(framed, query...)); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{
		pack(t, dnswire.NewQuery(5, "www.example", dnswire.TypeA).Reply()),
		{0x12, 0x34, 0x56},
		query,
	} {
		if err := client.SendUDP(clientAddr, 5300, srvAddr, 53, payload); err != nil {
			t.Fatal(err)
		}
	}
	n.Run()

	if !answered {
		t.Fatal("the TCP retry got no answer")
	}
	if datagrams != 3 || queryAt < 0 {
		t.Fatalf("%d datagrams reached the server, the query at %v; want 3 and the query", datagrams, queryAt)
	}
	if len(seen) != 2 {
		t.Fatalf("observed %d queries, want the UDP query and its TCP retry: %+v", len(seen), seen)
	}
	udp, tcp := seen[0], seen[1]
	if udp.Time != queryAt || udp.Client != clientAddr || udp.ClientPort != 5300 || udp.Server != srvAddr ||
		!udp.Name.Equal(name) || udp.Type != dnswire.TypeAAAA || udp.Transport != TransportUDP || udp.SYN != nil {
		t.Errorf("UDP query observed as %+v (arrived at %v)", udp, queryAt)
	}
	if tcp.Time <= udp.Time || tcp.Client != clientAddr || tcp.ClientPort != 5301 || tcp.Server != srvAddr ||
		!tcp.Name.Equal(name) || tcp.Type != dnswire.TypeAAAA || tcp.Transport != TransportTCP {
		t.Errorf("TCP query observed as %+v, after the UDP one at %v", tcp, udp.Time)
	}
	if tcp.SYN == nil || tcp.SYN.TCP == nil || !tcp.SYN.TCP.SYN || tcp.SYN.TCP.SrcPort != 5301 {
		t.Errorf("TCP query observed with SYN %+v", tcp.SYN)
	}
}

// TestServerAnswersWithoutObserver: a server nobody observes still
// answers.
func TestServerAnswersWithoutObserver(t *testing.T) {
	n, _, client := serverNet(t)
	var got *dnswire.Message
	err := client.BindUDP(5300, func(_ time.Duration, _ netip.Addr, _ uint16, _ netip.Addr, _ uint16, payload []byte) {
		got, _ = dnswire.Unpack(payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SendUDP(clientAddr, 5300, srvAddr, 53, pack(t, dnswire.NewQuery(9, "www.example", dnswire.TypeA))); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got == nil || got.ID != 9 || got.RCode != dnswire.RCodeNoError || len(got.Answer) != 1 ||
		got.Answer[0].Addr != netip.MustParseAddr("192.0.2.80") {
		t.Fatalf("reply %+v, want www.example's address", got)
	}
}
