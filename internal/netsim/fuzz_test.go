package netsim

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/routing"
)

// Fault verdicts FuzzDatagramLifecycle draws for a send.
const (
	lifeNone = iota
	lifeDrop
	lifeDuplicate
	lifeCorrupt
)

// lifeDoomed is the flag bit of a send to an address in AS 200 that no
// host holds: the fault hook draws on it, and it is never delivered.
const lifeDoomed = 32

// lifeOp encodes one send of FuzzDatagramLifecycle's input: flags (bit
// 0 IPv6, bit 1 within AS 200, bits 2-3 the fault verdict, bit 4 extra
// delay, bit 5 lifeDoomed), the gap in milliseconds after the previous
// send, and the payload's length past its 4-byte index.
func lifeOp(flags, gapMs byte, extra uint16) []byte {
	return []byte{flags, gapMs, byte(extra >> 8), byte(extra)}
}

// FuzzDatagramLifecycle drives the network's flight records through an
// arbitrary schedule. The input's first byte says which of the two
// port-53 handlers answer each delivery with a send of their own; each
// 4 bytes after it are one send (lifeOp): IPv4 or IPv6, from AS 100
// across AS 200's border or within AS 200, to a bound host or to an
// address no host holds, a payload of 4 to 1,500 bytes, so a record's
// bytes must sometimes grow, and a fault verdict (drop, duplicate,
// corrupt a payload bit, or none, each with or without extra delay). A
// doomed send's record goes back in transit, often while other records
// are still out. A reply draws its flags and length from the input's
// sends in turn. Every payload starts with its send's index. Whatever
// the network recycles, each delivered payload is its send's bytes,
// each send is delivered as often as its verdict says (a doomed one
// never), and each datagram ends once: delivered plus dropped is sends
// plus duplicates.
func FuzzDatagramLifecycle(f *testing.F) {
	seed := func(replies byte, ops ...[]byte) []byte {
		return append([]byte{replies}, bytes.Join(ops, nil)...)
	}
	f.Add(seed(3,
		lifeOp(lifeDuplicate<<2, 0, 12),
		lifeOp(0, 2, 1496),
		lifeOp(1|2, 1, 700),
		lifeOp(1|lifeCorrupt<<2, 0, 40),
		lifeOp(2|lifeDrop<<2, 3, 0),
		lifeOp(1|2|lifeDuplicate<<2|16, 0, 1200),
		lifeOp(16, 5, 64)))
	f.Add(seed(1,
		lifeOp(lifeDuplicate<<2|16, 0, 20),
		lifeOp(lifeDuplicate<<2, 0, 20),
		lifeOp(2, 1, 1496),
		lifeOp(1, 1, 3)))
	f.Add(seed(0, lifeOp(1|2|lifeDuplicate<<2, 0, 100), lifeOp(1|2, 0, 1496)))
	f.Add(seed(3,
		lifeOp(lifeDoomed|lifeDuplicate<<2, 0, 1496),
		lifeOp(lifeDuplicate<<2|16, 0, 30),
		lifeOp(1|lifeDoomed|lifeCorrupt<<2, 0, 200),
		lifeOp(1|lifeCorrupt<<2, 1, 900),
		lifeOp(2|lifeDoomed|lifeDrop<<2, 0, 12),
		lifeOp(2|lifeDrop<<2, 2, 1400),
		lifeOp(1|2|lifeDoomed, 0, 64),
		lifeOp(0, 0, 64)))
	f.Add(seed(2,
		lifeOp(1|2|lifeDuplicate<<2|16, 0, 700),
		lifeOp(1|lifeDoomed|lifeDuplicate<<2|16, 1, 1200),
		lifeOp(lifeDoomed|lifeCorrupt<<2|16, 0, 5),
		lifeOp(2|lifeDoomed|lifeDrop<<2, 0, 1496)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		replies, ops := data[0], data[1:len(data)-(len(data)-1)%4]
		if len(ops) > 4*64 {
			ops = ops[:4*64]
		}
		w := newWorld(t, nil)
		peer, err := w.net.Attach("peer", w.as2, addr("198.51.100.54"), addr("2001:db8:200::54"))
		if err != nil {
			t.Fatal(err)
		}
		// to returns the destination of a send under op: dst, or the
		// address of dst's family that no host holds.
		to := func(op []byte, dst netip.Addr) netip.Addr {
			switch {
			case op[0]&lifeDoomed == 0:
				return dst
			case dst.Is6():
				return addr("2001:db8:200::99")
			}
			return addr("198.51.100.99")
		}

		type send struct {
			payload []byte
			op      []byte
		}
		var sends []send
		counts := []int{} // deliveries per send
		dups := 0
		// write records send len(sends) under op and returns its payload.
		write := func(op []byte) []byte {
			i := len(sends)
			p := make([]byte, 4+int(binary.BigEndian.Uint16(op[2:4]))%1497)
			binary.BigEndian.PutUint32(p, uint32(i))
			for j := 4; j < len(p); j++ {
				p[j] = byte(i*7 + j)
			}
			sends = append(sends, send{p, op})
			counts = append(counts, 0)
			return p
		}
		// check holds a delivered payload to its send's bytes.
		check := func(payload []byte) {
			if len(payload) < 4 || int(binary.BigEndian.Uint32(payload)) >= len(sends) {
				t.Fatalf("delivered payload %x names no send", payload[:min(len(payload), 8)])
			}
			i := binary.BigEndian.Uint32(payload)
			if !bytes.Equal(payload, sends[i].payload) {
				t.Fatalf("send %d delivered %d bytes that are not the %d it sent", i, len(payload), len(sends[i].payload))
			}
			counts[i]++
		}
		w.net.SetFaultHook(func(_ time.Duration, fold uint64, pkt *packet.Packet, _, _ *routing.AS) TransitFault {
			op := sends[binary.BigEndian.Uint32(pkt.Data)].op
			var fault TransitFault
			if op[0]&16 != 0 {
				fault.ExtraDelay = time.Duration(fold%64) * time.Millisecond
			}
			switch op[0] >> 2 & 3 {
			case lifeDrop:
				fault.Drop = true
			case lifeDuplicate:
				dups++
				fault.Duplicate, fault.DupDelay = true, time.Duration(fold>>8%64)*time.Millisecond
			case lifeCorrupt: // a payload bit, which the UDP checksum meets
				fault.Corrupt = true
				fault.CorruptBit = 8*(len(pkt.Raw)-len(pkt.Data)) + int(fold>>16%uint64(8*len(pkt.Data)))
			}
			return fault
		})
		for k, h := range []*Host{w.target, peer} {
			answers := replies>>k&1 != 0
			if err := h.BindUDP(53, func(_ time.Duration, src netip.Addr, sp uint16, dst netip.Addr, dp uint16, payload []byte) {
				check(payload)
				if answers {
					op := ops[4*(len(sends)%(len(ops)/4)):]
					if err := h.SendUDP(dst, dp, to(op, src), sp, write(op[:4])); err != nil {
						t.Fatal(err)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range []*Host{w.scanner, w.target} {
			if err := h.BindUDP(5300, func(_ time.Duration, _ netip.Addr, _ uint16, _ netip.Addr, _ uint16, payload []byte) {
				check(payload)
			}); err != nil {
				t.Fatal(err)
			}
		}

		var at time.Duration
		for k := 0; k+4 <= len(ops); k += 4 {
			op := ops[k : k+4]
			at += time.Duration(op[1]%16) * time.Millisecond
			w.net.Q.At(at, func(time.Duration) {
				from, dst := w.scanner, w.target
				if op[0]&2 != 0 {
					from, dst = w.target, peer
				}
				v6 := op[0]&1 != 0
				if err := from.SendUDP(from.Addr(v6), 5300, to(op, dst.Addr(v6)), 53, write(op)); err != nil {
					t.Fatal(err)
				}
			})
		}
		w.net.Run()

		for i, s := range sends {
			want := map[int]int{lifeNone: 1, lifeDrop: 0, lifeDuplicate: 2, lifeCorrupt: 0}[int(s.op[0]>>2&3)]
			if s.op[0]&lifeDoomed != 0 {
				want = 0
			}
			if counts[i] != want {
				t.Errorf("send %d (flags %#x) delivered %d times, want %d", i, s.op[0], counts[i], want)
			}
		}
		var dropped uint64
		for _, v := range w.net.Drops() {
			dropped += v
		}
		if got, want := w.net.Delivered()+dropped, uint64(len(sends)+dups); got != want || w.net.Q.Len() != 0 {
			t.Errorf("%d delivered + %d dropped (%v) = %d, want %d sends + %d duplicates; %d events pending",
				w.net.Delivered(), dropped, w.net.Drops(), got, len(sends), dups, w.net.Q.Len())
		}
	})
}
