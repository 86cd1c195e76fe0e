package netsim

import (
	"fmt"
	"io"
	"net/netip"
	"strings"
	"time"

	"repro/internal/packet"
	"repro/internal/routing"
)

// TraceEvent records one packet's fate in the simulator — the pcap-like
// debugging surface for experiment development.
type TraceEvent struct {
	Time time.Duration
	// Delivered is true for packets that reached a socket; otherwise
	// Drop names the reason.
	Delivered bool
	Drop      DropReason
	Src, Dst  netip.Addr
	SrcPort   uint16
	DstPort   uint16
	Proto     string // "udp", "tcp", "?"
	Size      int
	DstASN    routing.ASN
	TCPFlags  string
}

// String renders the event as one tcpdump-like line.
func (e TraceEvent) String() string {
	verdict := "ok"
	if !e.Delivered {
		verdict = "drop:" + e.Drop.String()
	}
	flags := ""
	if e.TCPFlags != "" {
		flags = " [" + e.TCPFlags + "]"
	}
	return fmt.Sprintf("%12s %s %v:%d > %v:%d len %d%s (%s)",
		e.Time, e.Proto, e.Src, e.SrcPort, e.Dst, e.DstPort, e.Size, flags, verdict)
}

// Tracer captures packet events into a bounded ring buffer.
type Tracer struct {
	// Filter, when set, decides which events to keep.
	Filter func(TraceEvent) bool

	cap    int
	events []TraceEvent
	next   int
	full   bool
	total  uint64
}

// NewTracer creates a tracer keeping the most recent capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{cap: capacity, events: make([]TraceEvent, 0, capacity)}
}

func (t *Tracer) record(e TraceEvent) {
	if t.Filter != nil && !t.Filter(e) {
		return
	}
	t.total++
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
		return
	}
	t.events[t.next] = e
	t.next = (t.next + 1) % t.cap
	t.full = true
}

// Total reports how many events were recorded (including overwritten).
func (t *Tracer) Total() uint64 { return t.total }

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []TraceEvent {
	if !t.full {
		return append([]TraceEvent(nil), t.events...)
	}
	out := make([]TraceEvent, 0, t.cap)
	out = append(out, t.events[t.next:]...)
	return append(out, t.events[:t.next]...)
}

// Dump writes the retained events, one per line.
func (t *Tracer) Dump(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// SetTracer attaches (or, with nil, detaches) a packet tracer. The
// tracer observes every delivery and drop, so a traced network builds
// and schedules every datagram. Call it before any traffic: a datagram
// sent untraced may already have been counted without being built.
func (n *Network) SetTracer(t *Tracer) { n.tracer = t }

// traceEventFor builds a TraceEvent from a decoded packet.
func traceEventFor(now time.Duration, pkt *packet.Packet, delivered bool, reason DropReason, dstAS *routing.AS) TraceEvent {
	e := TraceEvent{Time: now, Delivered: delivered, Drop: reason}
	if dstAS != nil {
		e.DstASN = dstAS.ASN
	}
	if pkt == nil {
		e.Proto = "?"
		return e
	}
	e.Src, e.Dst = pkt.Src(), pkt.Dst()
	e.SrcPort, e.DstPort = pkt.SrcPort(), pkt.DstPort()
	e.Size = len(pkt.Raw)
	switch {
	case pkt.UDP != nil:
		e.Proto = "udp"
	case pkt.TCP != nil:
		e.Proto = "tcp"
		var f []string
		if pkt.TCP.SYN {
			f = append(f, "S")
		}
		if pkt.TCP.ACK {
			f = append(f, ".")
		}
		if pkt.TCP.FIN {
			f = append(f, "F")
		}
		if pkt.TCP.RST {
			f = append(f, "R")
		}
		if pkt.TCP.PSH {
			f = append(f, "P")
		}
		e.TCPFlags = strings.Join(f, "")
	default:
		e.Proto = "?"
	}
	return e
}
