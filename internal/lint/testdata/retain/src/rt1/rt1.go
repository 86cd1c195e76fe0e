// Package rt1 exercises the retain taint rules: retention events
// (global/field/map stores, channel sends, foreign appends, closure
// captures), the self-store, value-copy and plain-append exemptions,
// alias propagation, and pragma escapes.
package rt1

// Node is reference-carrying scratch.
type Node struct {
	N    int
	next *Node
	tags []string
}

var global *Node

// StoreGlobal parks scratch in a package variable.
//
//doors:scratch p
func StoreGlobal(p *Node) { // want StoreGlobal:`scratch\(1\)` StoreGlobal:`retains\(1\)`
	global = p // want `scratch parameter "p" of StoreGlobal may be retained: stored in package variable global`
}

// Sink outlives calls that receive it.
type Sink struct{ keep *Node }

// StoreField stores one parameter into another parameter's field:
// the stored scratch outlives the call through the sink.
//
//doors:scratch p
func StoreField(s *Sink, p *Node) { // want StoreField:`retains\(2\)`
	s.keep = p // want `scratch parameter "p" of StoreField may be retained: stored into another parameter`
}

var registry = map[int]*Node{}

// StoreMap parks scratch in a long-lived map.
//
//doors:scratch p
func StoreMap(p *Node) { // want StoreMap:`retains\(1\)`
	registry[p.N] = p // want `scratch parameter "p" of StoreMap may be retained: stored in a map that outlives the call`
}

var ch = make(chan *Node, 1)

// Send ships scratch to whoever drains the channel.
//
//doors:scratch p
func Send(p *Node) { // want Send:`retains\(1\)`
	ch <- p // want `scratch parameter "p" of Send may be retained: sent on a channel`
}

var all []*Node

// AppendAway grows a foreign slice with scratch.
//
//doors:scratch p
func AppendAway(p *Node) { // want AppendAway:`retains\(1\)`
	all = append(all, p) // want `scratch parameter "p" of AppendAway may be retained: appended to a slice that outlives the call`
}

var (
	names []string
	kept  []byte
)

// AppendCopies appends what it reads from scratch into slices of plain
// values: a string converted from scratch bytes and a spread of them
// are copies, so neither keeps the scratch.
//
//doors:scratch b c
func AppendCopies(b, c []byte) { // want AppendCopies:`scratch\(1,2\)` AppendCopies:`retains\(\)`
	names = append(names, string(b[1:]))
	kept = append([]byte(nil), c...)
}

// AppendSpread spreads a scratch slice of pointers into a foreign
// slice: the copied elements still point into scratch.
//
//doors:scratch ps
func AppendSpread(ps []*Node) { // want AppendSpread:`retains\(1\)`
	all = append(all, ps...) // want `scratch parameter "ps" of AppendSpread may be retained: appended to a slice that outlives the call`
}

// Capture closes over scratch; closures are conservatively assumed to
// escape.
//
//doors:scratch p
func Capture(p *Node) func() int { // want Capture:`retains\(1\)`
	return func() int { return p.N } // want `scratch parameter "p" of Capture may be retained: captured by a closure`
}

// Alias launders scratch through a local before storing it: the alias
// pass follows it.
//
//doors:scratch p
func Alias(p *Node) { // want Alias:`retains\(1\)`
	q := p
	r := q
	global = r // want `scratch parameter "p" of Alias may be retained: stored in package variable global`
}

// ReadOnly touches scratch every legal way: value reads, self-stores,
// self-appends, returning it.
//
//doors:scratch p
func ReadOnly(p *Node) *Node { // want ReadOnly:`scratch\(1\)` ReadOnly:`retains\(\)`
	p.N++
	p.tags = append(p.tags, "seen")
	p.next = p
	return p
}

var lastSeen int

// CopyOut stores a value read from scratch: copies do not retain the
// scratch memory.
//
//doors:scratch p
func CopyOut(p *Node) { // want CopyOut:`retains\(\)`
	lastSeen = p.N
}

// PassOn hands scratch to a callee that retains it: the classification
// propagates through the same-package call graph.
//
//doors:scratch p
func PassOn(p *Node) { // want PassOn:`retains\(1\)`
	StoreGlobal(p) // want `scratch parameter "p" of PassOn may be retained: passed to rt1\.StoreGlobal, which retains it: stored in package variable global`
}

// PassClean hands scratch to a callee proven non-retaining.
//
//doors:scratch p
func PassClean(p *Node) { // want PassClean:`retains\(\)`
	ReadOnly(p)
}

// Pragma escapes a deliberate retention with a reason; the fact
// improves, so callers stay clean too.
//
//doors:scratch p
func Pragma(p *Node) { // want Pragma:`retains\(\)`
	//lint:allow retain -- fixture: registry insertion is the documented ownership transfer
	global = p
}
