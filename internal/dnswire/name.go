// Package dnswire implements the DNS message wire format (RFC 1035 with
// the pieces of EDNS0 the experiment needs): domain names with
// compression, the message header, questions, and the resource-record
// types the measurement exercises.
package dnswire

import (
	"errors"
	"fmt"
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
)

// NewName builds a Name from labels, left to right.
func NewName(labels ...string) Name {
	return Name(strings.Join(labels, "."))
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
	ln, lz := strings.ToLower(string(n)), strings.ToLower(string(zone))
	if ln == lz {
		return true
	}
	return strings.HasSuffix(ln, "."+lz)
}

// Equal reports case-insensitive equality.
func (n Name) Equal(m Name) bool { return strings.EqualFold(string(n), string(m)) }

// Canonical returns the lowercased form, used as a map key.
func (n Name) Canonical() Name { return Name(strings.ToLower(string(n))) }

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

// nameCompressor tracks label-suffix offsets while encoding a message.
type nameCompressor struct {
	offsets map[Name]int
}

func newNameCompressor() *nameCompressor {
	return &nameCompressor{offsets: make(map[Name]int)}
}

// append serializes n into buf using compression pointers where a suffix
// has already been written.
func (c *nameCompressor) append(buf []byte, n Name) ([]byte, error) {
	if wire := len(string(n)) + 2; n != "" && wire > maxNameWire {
		return nil, errNameTooLong
	}
	rest := n
	for {
		if rest == "" {
			return append(buf, 0), nil
		}
		key := rest.Canonical()
		if off, ok := c.offsets[key]; ok && off < 0x4000 {
			return append(buf, 0xc0|byte(off>>8), byte(off)), nil
		}
		if len(buf) < 0x4000 {
			c.offsets[key] = len(buf)
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
			n += copy(name[n:], msg[off+1:off+1+l])
			name[n] = '.'
			n++
			off += 1 + l
		}
	}
}
