package dnswire

// EDNS0 (RFC 6891) support: the OPT pseudo-RR in the additional section
// advertises a requester UDP payload size above the classic 512-byte
// limit. The experiment's resolvers advertise EDNS, and the
// authoritative servers honor the advertised size when deciding whether
// to truncate — except in the always-truncate probe zone, which ignores
// it (that is the point of the TCP-eliciting follow-up).

// DefaultEDNSSize is the payload size modern resolvers advertise.
const DefaultEDNSSize = 1232

// SetEDNS attaches (or replaces) an OPT record advertising the given
// UDP payload size.
func (m *Message) SetEDNS(udpSize uint16) {
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			m.Additional[i].Class = Class(udpSize)
			return
		}
	}
	m.Additional = append(m.Additional, RR{
		Name: Root, Type: TypeOPT, Class: Class(udpSize),
	})
}

// EDNSSize returns the advertised UDP payload size, if the message
// carries an OPT record. Sizes below 512 are clamped up per RFC 6891.
func (m *Message) EDNSSize() (uint16, bool) {
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			size := uint16(m.Additional[i].Class)
			if size < maxUDPPayload {
				size = maxUDPPayload
			}
			return size, true
		}
	}
	return 0, false
}
