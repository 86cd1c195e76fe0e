package resolver

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/dnswire"
)

// Layer is one middleware layer of a resolver's stack. A layer carries
// policy; the Resolver core carries mechanism (wire I/O, transactions,
// timeouts, ports). Layers refine the core through the optional hook
// interfaces below — a layer implements only the hooks it needs, and
// compileStack indexes each resolver's layers per hook so the hot path
// never consults a layer that has nothing to say.
//
// The layer contract (DESIGN.md §11):
//   - Layers are composed in canonical order (ValidateStack) and walked
//     outermost-first: acl < cache < qmin < forward < iterate.
//   - A StepLayer's Step is called with the job's remaining depth
//     budget; returning true means the layer disposed of this step
//     (served, forwarded, queried upstream, or finished the job).
//     Returning false passes the step inward. A full fall-through is
//     SERVFAIL.
//   - Every re-entry into the stack (r.step) spends one unit of depth;
//     the budget (Config.MaxSteps) is the loop bound — no layer may
//     recurse unboundedly because no layer can re-enter without
//     spending.
//   - A layer may observe and mutate only its own state and the job's
//     layer-owned fields (minConfirmed/fullFallback for qmin,
//     fwdHop/fwdGuarded for forward); the core alone touches wire
//     state, pending transactions, and Stats counters it owns.
type Layer interface {
	// Name returns the layer's registered name.
	Name() string
}

// AdmitLayer gates client queries before a job is created. Returning
// false refuses the query (RCODE REFUSED).
type AdmitLayer interface {
	Layer
	Admit(src netip.Addr) bool
}

// StepLayer participates in the resolve walk. depth is the job's
// remaining step budget (informational; the core enforces it).
type StepLayer interface {
	Layer
	Step(j *job, depth int) bool
}

// CrashLayer holds soft state that a process crash-and-restart loses.
type CrashLayer interface {
	Layer
	OnCrash(now time.Duration)
}

// FinishLayer holds per-job state to release when the job completes.
type FinishLayer interface {
	Layer
	OnFinish(j *job)
}

// Registered layer names, in canonical (outermost-first) stack order.
const (
	LayerACL     = "acl"     // client access control
	LayerCache   = "cache"   // positive/negative/delegation cache
	LayerQMin    = "qmin"    // RFC 7816 QNAME minimization
	LayerForward = "forward" // upstream forwarding (single or chain)
	LayerIterate = "iterate" // iterative resolution from root hints
)

// layerSpec is a registry entry: canonical rank plus a builder bound to
// the resolver under construction.
type layerSpec struct {
	rank  int
	build func(r *Resolver) Layer
}

// layerRegistry maps layer names to their specs. Registration happens
// at package init; the map is never mutated afterwards, so concurrent
// resolver construction across survey shards reads it safely.
var layerRegistry = map[string]layerSpec{}

// registerLayer adds a layer to the registry. rank fixes the layer's
// canonical position in a stack (strictly increasing, which also rules
// out duplicates).
func registerLayer(name string, rank int, build func(r *Resolver) Layer) {
	if _, dup := layerRegistry[name]; dup {
		panic("resolver: duplicate layer " + name)
	}
	layerRegistry[name] = layerSpec{rank: rank, build: build}
}

func init() {
	registerLayer(LayerACL, 0, func(r *Resolver) Layer { r.lyr.acl = aclLayer{r: r}; return &r.lyr.acl })
	registerLayer(LayerCache, 1, func(r *Resolver) Layer {
		c := newCache(r.Host.Network().Now)
		if len(r.Host.Addrs) > 0 {
			c.owner = r.Host.Addrs[0]
		}
		c.obs = r.cfg.CacheObserver
		r.lyr.cache = cacheLayer{r: r, c: c}
		return &r.lyr.cache
	})
	registerLayer(LayerQMin, 2, func(r *Resolver) Layer { r.lyr.qmin = qminLayer{r: r}; return &r.lyr.qmin })
	registerLayer(LayerForward, 3, func(r *Resolver) Layer {
		r.lyr.fwd = forwardLayer{r: r, chain: r.cfg.ForwardChain}
		if len(r.cfg.ForwardChain) > 0 {
			r.lyr.fwd.inflight = make(map[fwdKey]int)
		}
		return &r.lyr.fwd
	})
	registerLayer(LayerIterate, 4, func(r *Resolver) Layer { r.lyr.iter = iterateLayer{r: r}; return &r.lyr.iter })
}

// ValidateStack checks that names is a buildable middleware stack:
// every name registered, canonical order (strictly increasing rank,
// which also forbids duplicates), at least one resolution layer
// (forward or iterate), and qmin only alongside iterate (minimization
// rewrites iterative queries; it has no meaning for a pure forwarder).
func ValidateStack(names []string) error {
	lastRank := -1
	var hasForward, hasIterate, hasQmin bool
	for i, n := range names {
		spec, ok := layerRegistry[n]
		if !ok {
			return fmt.Errorf("stack: unknown layer %q", n)
		}
		if spec.rank <= lastRank {
			return fmt.Errorf("stack: layer %q out of canonical order at position %d", n, i)
		}
		lastRank = spec.rank
		switch n {
		case LayerForward:
			hasForward = true
		case LayerIterate:
			hasIterate = true
		case LayerQMin:
			hasQmin = true
		}
	}
	if !hasForward && !hasIterate {
		return fmt.Errorf("stack: needs a %q or %q layer", LayerForward, LayerIterate)
	}
	if hasQmin && !hasIterate {
		return fmt.Errorf("stack: %q requires %q", LayerQMin, LayerIterate)
	}
	return nil
}

// defaultStacks holds every default stack shape, precomputed so
// DefaultStack returns a shared slice instead of allocating one per
// resolver (survey worlds build hundreds of thousands).
// Index bits: 1 acl, 2 qmin, 4 forward, 8 iterate; cache is always on.
var defaultStacks [16][]string

func init() {
	for i := range defaultStacks {
		s := make([]string, 0, 5)
		if i&1 != 0 {
			s = append(s, LayerACL)
		}
		s = append(s, LayerCache)
		if i&2 != 0 {
			s = append(s, LayerQMin)
		}
		if i&4 != 0 {
			s = append(s, LayerForward)
		}
		if i&8 != 0 {
			s = append(s, LayerIterate)
		}
		defaultStacks[i] = s
	}
}

// DefaultStack derives the middleware stack a configuration implies:
// an acl layer unless the ACL is open, a cache always, qmin when
// minimization is enabled (and there is an iterative path to minimize),
// a forward layer when upstreams are configured, an iterate layer when
// root hints exist. The returned slice is shared — callers must not
// mutate it.
func DefaultStack(roots []netip.Addr, cfg Config) []string {
	i := 0
	if !cfg.ACL.Open {
		i |= 1
	}
	if cfg.QnameMin && len(roots) > 0 {
		i |= 2
	}
	if len(cfg.Forward) > 0 || len(cfg.ForwardChain) > 0 {
		i |= 4
	}
	if len(roots) > 0 {
		i |= 8
	}
	return defaultStacks[i]
}

// layerSet owns the storage for one resolver's layers as value fields,
// so compiling a stack performs no per-layer heap allocations.
type layerSet struct {
	acl   aclLayer
	cache cacheLayer
	qmin  qminLayer
	fwd   forwardLayer
	iter  iterateLayer
}

// stack is a resolver's compiled middleware stack: the named layers,
// typed shortcuts for the core's direct collaborators, and per-hook
// walk lists backed by fixed arrays (again: zero allocations beyond the
// layerSet itself, which lives inside Resolver).
type stack struct {
	names []string

	admit AdmitLayer
	cache *cacheLayer
	qmin  *qminLayer
	fwd   *forwardLayer
	iter  *iterateLayer

	steps  []StepLayer
	crash  []CrashLayer
	finish []FinishLayer

	stepArr   [3]StepLayer
	crashArr  [2]CrashLayer
	finishArr [1]FinishLayer
}

// compileStack validates names and builds the resolver's stack.
func (r *Resolver) compileStack(names []string) error {
	if err := ValidateStack(names); err != nil {
		return err
	}
	s := &r.stack
	s.names = names
	s.steps = s.stepArr[:0]
	s.crash = s.crashArr[:0]
	s.finish = s.finishArr[:0]
	for _, name := range names {
		if name == LayerForward && len(r.cfg.Forward) == 0 && len(r.cfg.ForwardChain) == 0 {
			return fmt.Errorf("stack: %q layer with no Forward or ForwardChain upstreams", name)
		}
		l := layerRegistry[name].build(r)
		if a, ok := l.(AdmitLayer); ok {
			s.admit = a
		}
		if st, ok := l.(StepLayer); ok {
			s.steps = append(s.steps, st)
		}
		if c, ok := l.(CrashLayer); ok {
			s.crash = append(s.crash, c)
		}
		if f, ok := l.(FinishLayer); ok {
			s.finish = append(s.finish, f)
		}
		switch v := l.(type) {
		case *cacheLayer:
			s.cache = v
		case *qminLayer:
			s.qmin = v
		case *forwardLayer:
			s.fwd = v
		case *iterateLayer:
			s.iter = v
		}
	}
	return nil
}

// The core writes through these nil-safe helpers so response processing
// reads identically whether or not a cache layer is compiled in.

func (s *stack) cachePositive(name dnswire.Name, typ dnswire.Type, rrs []dnswire.RR, ttl uint32) {
	if s.cache != nil {
		s.cache.c.putPositive(name, typ, rrs, ttl)
	}
}

func (s *stack) cacheNegative(name dnswire.Name, ttl uint32) {
	if s.cache != nil {
		s.cache.c.putNegative(name, ttl)
	}
}

func (s *stack) cacheDelegation(apex dnswire.Name, addrs []netip.Addr, ttl uint32) {
	if s.cache != nil {
		s.cache.c.putDelegation(apex, addrs, ttl)
	}
}
