// Package dnswire implements the DNS message wire format (RFC 1035 with
// the pieces of EDNS0 the experiment needs): domain names with
// compression, the message header, questions, and the resource-record
// types the measurement exercises.
package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Name is a fully-qualified domain name in presentation form without the
// trailing dot ("example.org"); the root is the empty string. Comparisons
// throughout the package are case-insensitive, per RFC 1035 §2.3.3.
type Name string

// Root is the DNS root name.
const Root Name = ""

// maxNameWire is the maximum wire length of a domain name.
const maxNameWire = 255

// maxLabel is the maximum length of a single label.
const maxLabel = 63

var (
	errNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	errLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	errBadPointer   = errors.New("dnswire: bad compression pointer")
	errTruncated    = errors.New("dnswire: truncated message")
	errDottedLabel  = errors.New("dnswire: label contains '.'")
)

// NewName builds a Name from labels, left to right.
func NewName(labels ...string) Name {
	return Name(strings.Join(labels, "."))
}

// ReverseName returns the in-addr.arpa (IPv4) or ip6.arpa (IPv6)
// name for addr.
func ReverseName(addr netip.Addr) Name {
	if addr.Is4() {
		b := addr.As4()
		return Name(fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa", b[3], b[2], b[1], b[0]))
	}
	b := addr.As16()
	var sb strings.Builder
	for i := 15; i >= 0; i-- {
		fmt.Fprintf(&sb, "%x.%x.", b[i]&0xf, b[i]>>4)
	}
	sb.WriteString("ip6.arpa")
	return Name(sb.String())
}

// Labels splits the name into its labels. The root name has no labels.
func (n Name) Labels() []string {
	if n == "" {
		return nil
	}
	return strings.Split(string(n), ".")
}

// CountLabels reports the number of labels in the name.
func (n Name) CountLabels() int {
	if n == "" {
		return 0
	}
	return strings.Count(string(n), ".") + 1
}

// Parent returns the name with its leftmost label removed; the parent of
// a single-label name (and of the root) is the root.
func (n Name) Parent() Name {
	i := strings.IndexByte(string(n), '.')
	if i < 0 {
		return Root
	}
	return n[i+1:]
}

// Child returns the name with label prepended.
func (n Name) Child(label string) Name {
	if n == "" {
		return Name(label)
	}
	return Name(label) + "." + n
}

// IsSubdomainOf reports whether n is equal to or underneath zone.
func (n Name) IsSubdomainOf(zone Name) bool {
	if zone == "" {
		return true
	}
	d := len(n) - len(zone)
	switch {
	case d < 0:
		return false
	case d == 0:
		return equalFold(string(n), string(zone))
	default:
		return n[d-1] == '.' && equalFold(string(n[d:]), string(zone))
	}
}

// Equal reports case-insensitive equality.
func (n Name) Equal(m Name) bool { return equalFold(string(n), string(m)) }

// Canonical returns the lowercased form, used as a map key. It returns
// n itself when n has no upper-case letter.
func (n Name) Canonical() Name {
	i := 0
	for i < len(n) && !isUpper(n[i]) {
		i++
	}
	if i == len(n) {
		return n
	}
	var b strings.Builder
	b.Grow(len(n))
	b.WriteString(string(n[:i]))
	for ; i < len(n); i++ {
		b.WriteByte(lower(n[i]))
	}
	return Name(b.String())
}

func isUpper(c byte) bool { return 'A' <= c && c <= 'Z' }

func lower(c byte) byte {
	if isUpper(c) {
		return c + 'a' - 'A'
	}
	return c
}

// equalFold reports whether a and b are equal under ASCII case folding,
// the only folding names get (RFC 4343 §3): A-Z match a-z, and every
// other octet matches only itself. Unicode folding would equate
// distinct octets (every invalid UTF-8 byte folds to U+FFFD, and the
// Kelvin sign to k).
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] && lower(a[i]) != lower(b[i]) {
			return false
		}
	}
	return true
}

// String returns the presentation form with a trailing dot.
func (n Name) String() string {
	if n == "" {
		return "."
	}
	return string(n) + "."
}

// AppendName serializes the name into buf in uncompressed wire form
// (length-prefixed labels plus the terminal root byte). Hot-path
// callers use it to pre-encode a constant name tail once and splice
// varying leading labels in front of it per message.
func AppendName(buf []byte, n Name) ([]byte, error) {
	return appendName(buf, n)
}

// appendName serializes the name into buf without compression, returning
// the extended buffer.
func appendName(buf []byte, n Name) ([]byte, error) {
	wireLen := 1 // terminal root byte
	for _, label := range n.Labels() {
		if label == "" {
			return nil, fmt.Errorf("dnswire: empty label in %q", n)
		}
		if len(label) > maxLabel {
			return nil, errLabelTooLong
		}
		wireLen += 1 + len(label)
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	if wireLen > maxNameWire {
		return nil, errNameTooLong
	}
	return append(buf, 0), nil
}

// compressor remembers the names already written to a message, so a
// later name can end in a pointer to an earlier occurrence of one of
// its suffixes (RFC 1035 §4.1.4). It compares a suffix only against
// the names written before the current one: no suffix of a name equals
// a shorter suffix of the same name. The first names are kept inline,
// so a message of a few names packs without allocating for them.
type compressor struct {
	inline [8]writtenName
	n      int           // names in inline
	more   []writtenName // the names after the first len(inline)
}

// writtenName is a name whose first lit octets went out as labels at
// message offset off. Its suffix starting at byte i of the name, for i
// < lit, starts at offset off+i.
type writtenName struct {
	name     Name
	off, lit int
}

// maxPointer bounds the offsets a compression pointer can reach.
const maxPointer = 0x4000

func (c *compressor) add(w writtenName) {
	if w.lit == 0 || w.off >= maxPointer {
		return
	}
	if c.n < len(c.inline) {
		c.inline[c.n] = w
		c.n++
		return
	}
	c.more = append(c.more, w)
}

// find returns the lowest offset at which suffix went out as labels,
// or -1.
func (c *compressor) find(suffix Name) int {
	for i := range c.inline[:c.n] {
		if off := c.inline[i].offsetOf(suffix); off >= 0 {
			return off
		}
	}
	for i := range c.more {
		if off := c.more[i].offsetOf(suffix); off >= 0 {
			return off
		}
	}
	return -1
}

// offsetOf returns the offset at which w's suffix equal to suffix went
// out as labels, or -1 when w has no such suffix or wrote it out of a
// pointer's reach.
func (w *writtenName) offsetOf(suffix Name) int {
	at := len(w.name) - len(suffix)
	if at < 0 || at >= w.lit || w.off+at >= maxPointer || (at > 0 && w.name[at-1] != '.') ||
		!equalFold(string(w.name[at:]), string(suffix)) {
		return -1
	}
	return w.off + at
}

// append serializes n into buf, ending it in a compression pointer at
// its longest suffix already written.
func (c *compressor) append(buf []byte, n Name) ([]byte, error) {
	if wire := len(string(n)) + 2; n != "" && wire > maxNameWire {
		return nil, errNameTooLong
	}
	start := len(buf)
	rest := n
	for rest != "" {
		if off := c.find(rest); off >= 0 {
			c.add(writtenName{name: n, off: start, lit: len(buf) - start})
			return append(buf, 0xc0|byte(off>>8), byte(off)), nil
		}
		label, parent := string(rest), Root
		if i := strings.IndexByte(label, '.'); i >= 0 {
			label, parent = label[:i], rest[i+1:]
		}
		if len(label) > maxLabel {
			return nil, errLabelTooLong
		}
		if label == "" {
			return nil, fmt.Errorf("dnswire: empty label in %q", n)
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		rest = parent
	}
	c.add(writtenName{name: n, off: start, lit: len(buf) - start})
	return append(buf, 0), nil
}

// readName decodes a (possibly compressed) name starting at off in msg.
// It returns the name and the offset just past the name's in-place bytes.
func readName(msg []byte, off int) (Name, int, error) {
	var name [maxNameWire + 1]byte // each label and its trailing dot
	n := 0
	jumped := false
	next := off
	hops := 0
	for {
		if off >= len(msg) {
			return "", 0, errTruncated
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				next = off + 1
			}
			if n > maxNameWire {
				return "", 0, errNameTooLong
			}
			return Name(name[:max(n-1, 0)]), next, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return "", 0, errTruncated
			}
			ptr := int(b&0x3f)<<8 | int(msg[off+1])
			if !jumped {
				next = off + 2
			}
			if ptr >= off {
				return "", 0, errBadPointer
			}
			off = ptr
			jumped = true
			hops++
			if hops > 64 {
				return "", 0, errBadPointer
			}
		case b&0xc0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type %#x", b&0xc0)
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, errTruncated
			}
			if n+l+1 > len(name) {
				return "", 0, errNameTooLong
			}
			if bytes.IndexByte(msg[off+1:off+1+l], '.') >= 0 {
				// The presentation form has no escapes: a '.' inside a
				// label would read back as a label boundary.
				return "", 0, errDottedLabel
			}
			n += copy(name[n:], msg[off+1:off+1+l])
			name[n] = '.'
			n++
			off += 1 + l
		}
	}
}
