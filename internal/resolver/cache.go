package resolver

import (
	"net/netip"
	"time"

	"repro/internal/dnswire"
)

// cacheKey indexes positive cache entries.
type cacheKey struct {
	name dnswire.Name
	typ  dnswire.Type
}

// CacheObserver receives cache lifecycle events. The world's invariant
// checker implements it to assert that no entry is served past its
// expiry and that no entry survives a crash-induced flush. owner is the
// resolver's primary address, a stable identity across events.
type CacheObserver interface {
	CachePut(owner netip.Addr, insertedAt, expiry time.Duration)
	CacheServe(owner netip.Addr, insertedAt, expiry, now time.Duration)
	CacheFlush(owner netip.Addr, now time.Duration)
}

// posEntry is a cached RRset.
type posEntry struct {
	rrs        []dnswire.RR
	insertedAt time.Duration
	expiry     time.Duration
}

// negEntry is a cached NXDOMAIN.
type negEntry struct {
	insertedAt time.Duration
	expiry     time.Duration
}

// delegation is cached zone-cut knowledge: the nameserver addresses for
// a zone apex.
type delegation struct {
	apex       dnswire.Name
	addrs      []netip.Addr
	insertedAt time.Duration
	expiry     time.Duration
}

// cache holds positive answers, NXDOMAIN results, and delegations, all
// expiring on the virtual clock.
type cache struct {
	now   func() time.Duration
	pos   map[cacheKey]posEntry
	neg   map[dnswire.Name]negEntry
	deleg map[dnswire.Name]delegation
	owner netip.Addr
	obs   CacheObserver
}

func newCache(now func() time.Duration) *cache {
	return &cache{
		now:   now,
		pos:   make(map[cacheKey]posEntry),
		neg:   make(map[dnswire.Name]negEntry),
		deleg: make(map[dnswire.Name]delegation),
	}
}

// putPositive caches a copy of rrs, which may be a decode's reused
// storage.
func (c *cache) putPositive(name dnswire.Name, typ dnswire.Type, rrs []dnswire.RR, ttl uint32) {
	e := posEntry{
		rrs:        append([]dnswire.RR(nil), rrs...),
		insertedAt: c.now(),
		expiry:     c.now() + time.Duration(ttl)*time.Second,
	}
	c.pos[cacheKey{name.Canonical(), typ}] = e
	if c.obs != nil {
		c.obs.CachePut(c.owner, e.insertedAt, e.expiry)
	}
}

func (c *cache) getPositive(name dnswire.Name, typ dnswire.Type) ([]dnswire.RR, bool) {
	e, ok := c.pos[cacheKey{name.Canonical(), typ}]
	if !ok || e.expiry <= c.now() {
		return nil, false
	}
	if c.obs != nil {
		c.obs.CacheServe(c.owner, e.insertedAt, e.expiry, c.now())
	}
	return e.rrs, true
}

// flush discards every cached entry — the cold cache a resolver restarts
// with after a crash. It clears the maps in place rather than
// reallocating them: flush sits on the crash-recovery hot path
// (Resolver.Crash), and the emptied maps keep their buckets for the
// refill that follows.
func (c *cache) flush() {
	clear(c.pos)
	clear(c.neg)
	clear(c.deleg)
	if c.obs != nil {
		//lint:allow hotalloc -- observer hook is a dynamic interface call; nil in production surveys, only instrumented by tests
		c.obs.CacheFlush(c.owner, c.now())
	}
}

func (c *cache) putNegative(name dnswire.Name, ttl uint32) {
	e := negEntry{
		insertedAt: c.now(),
		expiry:     c.now() + time.Duration(ttl)*time.Second,
	}
	c.neg[name.Canonical()] = e
	if c.obs != nil {
		c.obs.CachePut(c.owner, e.insertedAt, e.expiry)
	}
}

// getNegative reports a cached NXDOMAIN for name, including the RFC 8020
// subtree cut: an NXDOMAIN cached for an ancestor implies NXDOMAIN for
// the name.
func (c *cache) getNegative(name dnswire.Name) bool {
	n := name.Canonical()
	for {
		if e, ok := c.neg[n]; ok && e.expiry > c.now() {
			if c.obs != nil {
				c.obs.CacheServe(c.owner, e.insertedAt, e.expiry, c.now())
			}
			return true
		}
		if n == dnswire.Root {
			return false
		}
		n = n.Parent()
	}
}

func (c *cache) putDelegation(apex dnswire.Name, addrs []netip.Addr, ttl uint32) {
	e := delegation{
		apex:       apex,
		addrs:      addrs,
		insertedAt: c.now(),
		expiry:     c.now() + time.Duration(ttl)*time.Second,
	}
	c.deleg[apex.Canonical()] = e
	if c.obs != nil {
		c.obs.CachePut(c.owner, e.insertedAt, e.expiry)
	}
}

// closestDelegation returns the deepest cached, unexpired delegation at
// or above name.
func (c *cache) closestDelegation(name dnswire.Name) (delegation, bool) {
	n := name.Canonical()
	for {
		if d, ok := c.deleg[n]; ok && d.expiry > c.now() {
			if c.obs != nil {
				c.obs.CacheServe(c.owner, d.insertedAt, d.expiry, c.now())
			}
			return d, true
		}
		if n == dnswire.Root {
			return delegation{}, false
		}
		n = n.Parent()
	}
}
