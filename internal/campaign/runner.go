package campaign

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/geo"
	"repro/internal/resolver"
	"repro/internal/routing"
	"repro/internal/runs"
	"repro/internal/scanner"
	"repro/internal/world"
)

// Config parameterizes a campaign run: the engine knobs every campaign
// shares, independent of its phase list.
type Config struct {
	// World tunes the simulated Internet (loss, wildcard zone, DSAV
	// counterfactuals).
	World world.Options
	// Scanner tunes the measurement client.
	Scanner scanner.Config
	// LifetimeThreshold filters human-induced queries (default 10s,
	// §3.6.3).
	LifetimeThreshold time.Duration
	// ChurnFraction takes this share of resolvers offline at random
	// points during the experiment (§3.6.2's address churn).
	ChurnFraction float64
	// Shards splits the population across this many independent
	// simulation shards run on parallel goroutines. 0 (or 1) runs the
	// classic single-shard campaign; -1 picks runtime.GOMAXPROCS(0).
	// Every source of randomness in the pipeline is keyed on causal
	// identity rather than drawn from shared streams, so the merged
	// Result — targets, hits, report — is identical at any shard count.
	Shards int
	// Stream discards each shard's world once its observations are
	// partitioned instead of retaining every world on the Result: a
	// shard's world is built (typically from a ditl.View, which
	// synthesizes specs on demand) only when its worker starts, so peak
	// residency is the largest set of concurrently live shards, not the
	// population. The merged Result is bit-identical either way; the
	// trade-off is that Result.World and Result.Worlds are nil
	// (Result.Scanner carries the merged buffers, registry, and scanner
	// addresses).
	Stream bool
	// MaxParallel bounds how many shard simulations run at once, in
	// every mode. 0 picks runtime.GOMAXPROCS(0). Under Stream it is the
	// peak-memory knob — RSS scales with MaxParallel × shard size; a
	// retained run builds every world up front, so there it bounds only
	// concurrency.
	MaxParallel int
	// Fold extends Stream by spilling runs: each shard's sorted hit run
	// spills to a temporary run file the moment the shard finishes, and
	// the final reduce streams the hierarchical k-way merge of those
	// files through the reducers instead of materializing merged
	// buffers. Peak residency stays O(live shards) all the way through
	// Report — nothing after a shard's simulation holds O(total targets)
	// state. The Report is bit-identical; the trade-off is that
	// Result.Scanner's Targets, Hits and Partials are nil (Stats still
	// carries the counts, and reducers saw exactly the canonical
	// sequences). Implies Stream.
	Fold bool
	// Chaos, when Enabled, subjects the campaign to a deterministic
	// fault schedule keyed on causal identity. Infrastructure ASes (as
	// recorded on the registry) are exempt; chaos stresses the measured
	// paths, not the experiment's control plane.
	Chaos chaos.Config
	// DisableInvariants turns off the always-on invariant checker. When
	// the checker is on and any invariant is violated, Run returns the
	// completed Result together with a non-nil error.
	DisableInvariants bool
}

// ShardCount resolves the configured shard count.
func (c Config) ShardCount() int {
	switch {
	case c.Shards < 0:
		return runtime.GOMAXPROCS(0)
	case c.Shards == 0:
		return 1
	default:
		return c.Shards
	}
}

func (c Config) maxParallel() int {
	if c.MaxParallel > 0 {
		return c.MaxParallel
	}
	return runtime.GOMAXPROCS(0)
}

// validate rejects values that would otherwise be silently reinterpreted
// (a shard count below -1 read as "one per CPU", a churn share above 1
// saturating), naming the offending field.
func (c Config) validate() error {
	switch {
	case c.Shards < -1:
		return fmt.Errorf("campaign: Shards = %d; want -1 (one per CPU), 0 or a positive count", c.Shards)
	case c.MaxParallel < 0:
		return fmt.Errorf("campaign: MaxParallel = %d; want 0 (one per CPU) or a positive bound", c.MaxParallel)
	case !(c.ChurnFraction >= 0 && c.ChurnFraction <= 1):
		return fmt.Errorf("campaign: ChurnFraction = %v; want a fraction in [0, 1]", c.ChurnFraction)
	case !(c.World.LossRate >= 0 && c.World.LossRate <= 1):
		return fmt.Errorf("campaign: World.LossRate = %v; want a probability in [0, 1]", c.World.LossRate)
	case c.LifetimeThreshold < 0:
		return fmt.Errorf("campaign: LifetimeThreshold = %v; want a non-negative duration", c.LifetimeThreshold)
	}
	return nil
}

// Result is a completed campaign run.
type Result struct {
	// Campaign is the phase list that ran.
	Campaign   *Campaign
	Population ditl.Pop
	// World is the first shard's world (they share scanner addresses,
	// registry, and global public-DNS addressing); Worlds lists every
	// shard's world. Both are nil under Config.Stream (and Fold), which
	// discard each world as soon as its shard's observations are
	// partitioned. Retained or not, at most Config.MaxParallel shards
	// simulate at once.
	World  *world.World
	Worlds []*world.World
	// Scanner holds the merged results: Targets, Hits, Partials and
	// Stats aggregated across shards in canonical order.
	Scanner *scanner.Scanner
	Report  *analysis.Report
	Geo     *geo.DB
	// PublicDNS lists the shared public resolvers plus every per-AS
	// replica (the §3.6.1 public-DNS service addresses).
	PublicDNS []netip.Addr

	// Probes is the number of probe queries scheduled across all
	// phases; Duration is the virtual campaign window they were spread
	// over.
	Probes   int
	Duration time.Duration

	// ResolverStats sums every simulated resolver's counters across all
	// shards — the server-side complement to Scanner.Stats. Shards
	// contribute as their simulations finish, in any order; the total
	// is deterministic because stats addition is commutative.
	ResolverStats resolver.Stats

	// Invariants is the merged invariant-checker report (nil when the
	// checker was disabled).
	Invariants *world.InvariantReport
	// ChaosCrashes is the number of resolver crashes the chaos schedule
	// injected across all shards (0 without chaos). Each crash drops
	// the crashed resolver's in-flight queries and asks every layer of
	// its middleware stack to drop its soft state (cache flush when a
	// cache layer is compiled in).
	ChaosCrashes int
}

// Runner executes campaigns. One Runner is safe for concurrent Run
// calls — the racestress harness and parameter sweeps drive several
// campaigns at once through a shared Runner: the registry memo and the
// progress counters below are the only cross-campaign state, every
// access to them holds mu, and everything a shard goroutine touches is
// either read-only (registry, geo database, campaign, population view)
// or handed to it as an argument.
type Runner struct {
	mu sync.Mutex
	// regCache memoizes BuildRegistry by population identity and world
	// options: concurrent campaigns over the same population build the
	// routing registry once and share it read-only.
	//doors:guardedby mu
	regCache map[regKey]*routing.Registry
	// active counts campaigns currently inside Run.
	//doors:guardedby mu
	active int
	// completed counts campaigns that have finished, success or error.
	//doors:guardedby mu
	completed int
	// shardsDone counts shard simulations completed across all runs.
	//doors:guardedby mu
	shardsDone int
}

// regKey identifies one memoized registry. Pop implementations are
// pointers and Options is a flat value struct, so the key is
// comparable.
type regKey struct {
	pop  ditl.Pop
	opts world.Options
}

// NewRunner returns a Runner ready for concurrent use.
func NewRunner() *Runner {
	return &Runner{regCache: make(map[regKey]*routing.Registry)}
}

// Progress reports the Runner's lifetime counters: campaigns currently
// running, campaigns completed, and shard simulations finished.
func (r *Runner) Progress() (active, completed, shardsDone int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.active, r.completed, r.shardsDone
}

// shardDone records one finished shard simulation. Called from shard
// goroutines.
func (r *Runner) shardDone() {
	r.mu.Lock()
	r.shardsDone++
	r.mu.Unlock()
}

// registryFor returns the memoized registry for (pop, opts), building
// it on first use. The build runs outside the lock — registries take
// real work to construct and BuildRegistry is deterministic, so two
// racing builders produce equivalent registries and the first to
// publish wins.
func (r *Runner) registryFor(pop ditl.Pop, opts world.Options) (*routing.Registry, error) {
	key := regKey{pop: pop, opts: opts}
	r.mu.Lock()
	cached := r.regCache[key]
	r.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	reg, err := world.BuildRegistry(pop, opts)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if prior := r.regCache[key]; prior != nil {
		reg = prior // a concurrent builder published first
	} else {
		r.regCache[key] = reg
	}
	r.mu.Unlock()
	return reg, nil
}

// Run executes the campaign over the population as one pipeline of
// pass A, pass B and a merge. c == nil runs the default survey
// campaign.
//
// The population's ASes are partitioned into contiguous shards, each
// simulated in its own world (own event queue, own scanner instance)
// over one shared read-only routing registry.
//
// Pass A (sequential) admits every shard's candidates and lets every
// phase Plan. It yields the campaign-wide probe total before any shard
// schedules, so the campaign window — and with it every probe
// timestamp and the chaos fault schedule — is identical at every shard
// count. A retained shard (neither Stream nor Fold) is built with its
// world here and keeps its plan; every other shard plans on a host-less
// planner dropped after its iteration, because keeping all K planners
// would be O(total targets).
//
// Pass B runs runShard for every shard on a worker pool bounded by
// MaxParallel: build and re-plan unless pass A kept the shard,
// schedule, churn and chaos, observe, simulate, seal and partition,
// then keep the runs in memory or spill them.
//
// One merge then combines the shards' stats, partial reductions,
// public DNS and invariant reports in shard order, and reduces the
// canonically ordered buffers — merged in memory, or streamed from the
// spilled runs — into the Report with the phases' deduplicated reducer
// set. The same seeds produce the same Report at any shard count,
// including 1, whether worlds are retained and runs spilled or not.
func (r *Runner) Run(c *Campaign, pop ditl.Pop, cfg Config) (*Result, error) {
	r.mu.Lock()
	r.active++
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.active--
		r.completed++
		r.mu.Unlock()
	}()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if c == nil {
		c = NewSurvey()
	}
	// Every shard's planner needs the complete IPv6 hit list before any
	// Plan, so one dedicated view sweep derives it up front.
	if cfg.Scanner.V6HitList == nil {
		cfg.Scanner.V6HitList = V6HitList(pop)
	}
	cfg.World.Invariants = !cfg.DisableInvariants
	reg, err := r.registryFor(pop, cfg.World)
	if err != nil {
		return nil, err
	}

	retain := !cfg.Stream && !cfg.Fold
	shards := cfg.ShardCount()
	parts := ditl.PartitionIndices(pop.NumASes(), shards)
	if shards == 1 {
		parts[0] = nil // build everything; preserves Build's fast path
	}

	// Pass A.
	kept := make([]*Shard, shards)
	probes := 0
	var planCfg scanner.Config
	for k, indices := range parts {
		sh, err := newShard(pop, reg, cfg, k, indices, retain)
		if err != nil {
			return nil, err
		}
		planCfg = sh.Scanner.Cfg
		for _, ph := range c.Phases {
			probes += ph.Plan(sh)
		}
		if retain {
			kept[k] = sh
		}
	}
	duration := scanner.CampaignDuration(probes, planCfg.Rate)
	var inj *chaos.Injector
	if cfg.Chaos.Enabled {
		inj = chaos.NewInjector(cfg.Chaos)
		inj.SetWindow(duration)
		inj.SetEligibleRegistry(reg)
	}

	// Fold spills each shard's sorted hit run here the moment the shard
	// finishes; the reduce streams the files back.
	foldDir := ""
	if cfg.Fold {
		dir, err := os.MkdirTemp("", "doors-fold-")
		if err != nil {
			return nil, fmt.Errorf("campaign: fold spill dir: %w", err)
		}
		foldDir = dir
		defer os.RemoveAll(dir)
	}

	// Pass B. The injector, registry, geo database, campaign and
	// population view are all read-only across workers; the
	// resolver-stats sink and the Runner's progress counter take their
	// own locks.
	gdb := GeoDB(pop)
	outs := make([]*shardOut, shards)
	var rsink resolver.StatsSink
	sem := make(chan struct{}, cfg.maxParallel())
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func(k int, sh *Shard, pop ditl.Pop, cfg Config, gdb *geo.DB, inj *chaos.Injector, r *Runner, rsink *resolver.StatsSink) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outs[k] = runShard(c, pop, cfg, reg, gdb, inj, k, parts[k], sh, duration, foldDir)
			rsink.Add(outs[k].rstats)
			r.shardDone()
		}(k, kept[k], pop, cfg, gdb, inj, r, &rsink)
	}
	wg.Wait()
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
	}

	// The merge, in shard order. Shards hold disjoint AS subsets in
	// population order, so concatenating per-shard lists reproduces the
	// single-shard ones exactly, and the per-shard partial reductions
	// have disjoint key spaces (targets are per-AS, ASes per-shard).
	var stats scanner.Stats
	ctxs := make([]*analysis.Context, shards)
	chaosCrashes := 0
	nDNS := len(outs[0].publicDNS)
	for k, o := range outs {
		stats.Add(o.stats)
		ctxs[k] = o.ctx
		chaosCrashes += o.crashes
		nDNS += len(o.asPublicDNS)
	}
	publicDNS := make([]netip.Addr, 0, nDNS)
	publicDNS = append(publicDNS, outs[0].publicDNS...)
	for _, o := range outs {
		publicDNS = append(publicDNS, o.asPublicDNS...)
	}

	var inv *world.InvariantReport
	if !cfg.DisableInvariants {
		merged := world.InvariantReport{}
		for _, o := range outs {
			merged.Add(o.inv)
		}
		inv = &merged
	}

	// The merged result scanner: registry, addresses and stats, with no
	// host and no world behind it. The in-memory merge materializes the
	// merged buffers onto it; the fold reduce leaves them nil and
	// streams the spilled runs instead.
	sc := &scanner.Scanner{
		Addr4: outs[0].addr4, Addr6: outs[0].addr6,
		Reg: reg, Cfg: planCfg, Stats: stats,
	}
	var in analysis.Input
	if cfg.Fold {
		// Hierarchical external merge: pre-merge the spilled shard runs
		// in contiguous groups of mergeFanIn until one level fits, then
		// stream the final k-way merge through the reducers. Contiguous
		// grouping + run-index stability make any grouping byte-identical
		// to the flat merge (see internal/runs).
		paths := make([]string, len(outs))
		for k, o := range outs {
			paths[k] = o.runPath
		}
		paths, err := reduceRuns(foldDir, paths)
		if err != nil {
			return nil, fmt.Errorf("campaign: fold pre-merge: %w", err)
		}
		in = analysis.Input{
			ScannerAddrs:      []netip.Addr{sc.Addr4, sc.Addr6},
			Reg:               reg,
			Geo:               gdb,
			LifetimeThreshold: cfg.LifetimeThreshold,
			FollowUpCount:     cfg.Scanner.FollowUpCount,
			Stream: &analysis.Streams{
				Hits:    foldHitStream(paths),
				Targets: foldTargetStream(pop, reg, cfg.Scanner),
			},
		}
	} else {
		// Targets concatenate in shard order; hits and partials — each
		// shard's already a canonically sorted run after SealRuns — k-way
		// merge stably by run index into exactly-sized buffers. A stable
		// merge of per-shard stable sorts in shard order equals the
		// stable sort of the concatenation, so the merged sequences are
		// bit-identical however the campaign was split. One shard's
		// buffers pass through uncopied.
		sc.Targets, sc.Hits, sc.Partials = outs[0].targets, outs[0].hits, outs[0].partials
		if len(outs) > 1 {
			nT, nH, nP := 0, 0, 0
			hitRuns := make([][]scanner.Hit, len(outs))
			partRuns := make([][]scanner.PartialHit, len(outs))
			for k, o := range outs {
				nT += len(o.targets)
				nH += len(o.hits)
				nP += len(o.partials)
				hitRuns[k], partRuns[k] = o.hits, o.partials
			}
			targets := make([]scanner.Target, 0, nT)
			for _, o := range outs {
				targets = append(targets, o.targets...)
			}
			sc.Targets = targets
			sc.Hits = runs.MergeSlices(make([]scanner.Hit, 0, nH), scanner.LessHit, hitRuns...)
			sc.Partials = runs.MergeSlices(make([]scanner.PartialHit, 0, nP), scanner.LessPartial, partRuns...)
		}
		in = shardInput(sc, sc.Addr4, sc.Addr6, reg, gdb, cfg)
	}
	// MergeContexts re-binds the merged Input, so order-sensitive
	// reducers read the canonical sequences, never shard-local order.
	report := &analysis.Report{}
	mctx := analysis.MergeContexts(in, ctxs)
	mctx.Reduce(report, c.reducers())
	if err := mctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: fold reduce: %w", err)
	}

	result := &Result{
		Campaign:   c,
		Population: pop,
		Scanner:    sc, Report: report, Geo: gdb, PublicDNS: publicDNS,
		Probes: probes, Duration: duration,
		ResolverStats: rsink.Total(),
		Invariants:    inv, ChaosCrashes: chaosCrashes,
	}
	if retain {
		result.Worlds = make([]*world.World, shards)
		for k, o := range outs {
			result.Worlds[k] = o.world
		}
		result.World = result.Worlds[0]
	}
	if inv != nil && !inv.Ok() {
		return result, fmt.Errorf("campaign: %d simulation invariant violation(s); first: %s",
			inv.ViolationCount, inv.Violations[0])
	}
	return result, nil
}

// Run executes one campaign on a fresh Runner. It is the one-shot
// entry point; callers running several campaigns (especially
// concurrently, or over the same population) should share a Runner.
func Run(c *Campaign, pop ditl.Pop, cfg Config) (*Result, error) {
	return NewRunner().Run(c, pop, cfg)
}

// shardInput assembles one shard's analysis input: its own buffers over
// the shared registry and geo database. Partition's folds are
// order-independent (set inserts and boolean ors keyed by target
// address), so partitioning a shard's unsorted buffers yields the same
// partial maps the canonical merged order would; the order-sensitive
// reducers never see shard-local order because MergeContexts re-binds
// the merged, canonically sorted Input before Reduce runs.
func shardInput(sc *scanner.Scanner, addr4, addr6 netip.Addr, reg *routing.Registry, gdb *geo.DB, cfg Config) analysis.Input {
	return analysis.Input{
		Hits:              sc.Hits,
		Partials:          sc.Partials,
		Targets:           sc.Targets,
		ScannerAddrs:      []netip.Addr{addr4, addr6},
		Reg:               reg,
		Geo:               gdb,
		LifetimeThreshold: cfg.LifetimeThreshold,
		FollowUpCount:     cfg.Scanner.FollowUpCount,
	}
}

// shardOut is everything the merge keeps from a finished shard: the
// scanner's result buffers, the partitioned observations, and the
// handful of world-level scalars the merge needs. The world itself —
// resolvers, caches, zones, and the event queue — rides along only in
// a retained run; otherwise it is garbage the moment the shard's worker
// returns.
type shardOut struct {
	targets      []scanner.Target
	hits         []scanner.Hit
	partials     []scanner.PartialHit
	stats        scanner.Stats
	addr4, addr6 netip.Addr
	ctx          *analysis.Context
	rstats       resolver.Stats
	publicDNS    []netip.Addr
	asPublicDNS  []netip.Addr
	inv          world.InvariantReport
	crashes      int
	// world is the shard's world (retained runs only).
	world *world.World
	// runPath is the shard's spilled sorted hit run (Fold only;
	// targets/hits/partials above stay nil in that mode).
	runPath string
	err     error
}

// newShard admits the shard's candidates into a fresh scanner: a full
// one over a newly built world when withWorld, else a host-less planner
// — Plan needs only the targets, the registry, and the config.
func newShard(pop ditl.Pop, reg *routing.Registry, cfg Config, k int, indices []int, withWorld bool) (*Shard, error) {
	sh := &Shard{Index: k}
	if withWorld {
		w, err := world.BuildWith(pop, reg, cfg.World, indices)
		if err != nil {
			return nil, err
		}
		sc, err := scanner.New(w.Scanner, w.ScannerAddr4, w.ScannerAddr6, w.Reg, w.Auth, cfg.Scanner)
		if err != nil {
			return nil, err
		}
		sh.World, sh.Scanner = w, sc
	} else {
		sh.Scanner = scanner.NewPlanner(reg, cfg.Scanner)
	}
	admitShard(sh.Scanner, pop, indices)
	return sh, nil
}

// runShard simulates one shard end to end. kept is the shard pass A
// built and planned with its world (retained runs), or nil: then the
// shard is built from the population view and re-planned here. Then
// schedule, churn and chaos, observe, run, seal, partition — and, when
// foldDir is set, spill the sealed hit run to disk and drop the
// buffers. A retained shard's world rides out on the shardOut;
// otherwise everything but the shardOut is garbage when it returns.
func runShard(c *Campaign, pop ditl.Pop, cfg Config, reg *routing.Registry, gdb *geo.DB, inj *chaos.Injector, k int, indices []int, kept *Shard, duration time.Duration, foldDir string) *shardOut {
	out := &shardOut{}
	sh := kept
	if sh != nil {
		out.world = sh.World
	} else {
		var err error
		if sh, err = newShard(pop, reg, cfg, k, indices, true); err != nil {
			return &shardOut{err: err}
		}
		for _, ph := range c.Phases {
			ph.Plan(sh)
		}
	}
	w, sc := sh.World, sh.Scanner
	// Phases schedule in list order, then churn and chaos, then reactive
	// hooks arm — the same event-queue insertion order at every shard
	// count.
	for _, ph := range c.Phases {
		ph.Schedule(sh, duration)
	}
	if cfg.ChurnFraction > 0 {
		w.ScheduleChurn(cfg.ChurnFraction, duration, cfg.Scanner.Seed+99)
	}
	if inj != nil {
		out.crashes = w.ScheduleChaos(inj)
	}
	for _, ph := range c.Phases {
		ph.Observe(sh)
	}
	w.Net.Run()
	sc.SealRuns()
	out.ctx = analysis.Partition(shardInput(sc, w.ScannerAddr4, w.ScannerAddr6, reg, gdb, cfg))
	out.rstats = w.ResolverStats()
	out.stats = sc.Stats
	out.addr4, out.addr6 = w.ScannerAddr4, w.ScannerAddr6
	out.publicDNS, out.asPublicDNS = w.PublicDNS, w.ASPublicDNS
	if !cfg.DisableInvariants {
		out.inv = w.Invariants.Report()
	}
	if foldDir != "" {
		// Partition has folded everything it needs; the sorted hit run
		// spills and the shard's buffers die with this frame. Partials
		// need no spill (folded into the per-shard qmin sets) and the
		// target list re-derives from the view at reduce time.
		path := filepath.Join(foldDir, fmt.Sprintf("shard-%05d.run", k))
		if err := scanner.WriteHitRun(path, sc.Hits); err != nil {
			return &shardOut{err: err}
		}
		out.runPath = path
	} else {
		out.targets, out.hits, out.partials = sc.Targets, sc.Hits, sc.Partials
	}
	return out
}

// admitShard streams the shard's DITL-derived candidate targets (live
// resolvers and dead addresses alike; the scanner cannot tell them
// apart, §3.6.2) straight off the population view into the scanner's
// admission predicate — no intermediate slice.
func admitShard(sc *scanner.Scanner, pop ditl.Pop, indices []int) {
	sc.AdmitHint(pop.CandidateCount(indices))
	pop.EachAS(indices, func(_ int, as *ditl.ASSpec) {
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			if r.HasV4() {
				sc.AdmitOne(r.Addr4)
			}
			if r.HasV6() {
				sc.AdmitOne(r.Addr6)
			}
		}
		for _, d := range as.DeadTargets {
			sc.AdmitOne(d)
		}
	})
}

// mergeFanIn bounds how many run files the fold reduce holds open at
// once. Package variable so the grouping-invariance test can shrink it;
// any value ≥ 2 produces byte-identical output.
var mergeFanIn = 16

// reduceRuns pre-merges the spilled shard runs in contiguous groups of
// mergeFanIn, level by level, deleting each level's inputs, until at
// most mergeFanIn files remain for the final streaming merge.
func reduceRuns(dir string, paths []string) ([]string, error) {
	for gen := 0; len(paths) > mergeFanIn; gen++ {
		next := make([]string, 0, (len(paths)+mergeFanIn-1)/mergeFanIn)
		for i := 0; i < len(paths); i += mergeFanIn {
			group := paths[i:min(i+mergeFanIn, len(paths))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			out := filepath.Join(dir, fmt.Sprintf("merge-%d-%05d.run", gen, i/mergeFanIn))
			if err := mergeRunFiles(out, group); err != nil {
				return nil, err
			}
			for _, p := range group {
				os.Remove(p)
			}
			next = append(next, out)
		}
		paths = next
	}
	return paths, nil
}

// mergeRunFiles streams the stable k-way merge of the input run files
// into a new run file. Peak residency: one decoded hit per input plus
// the buffered writers.
func mergeRunFiles(outPath string, inPaths []string) error {
	srcs := make([]runs.Source[scanner.Hit], len(inPaths))
	readers := make([]*scanner.HitRunReader, len(inPaths))
	defer func() {
		for _, rd := range readers {
			if rd != nil {
				rd.Close()
			}
		}
	}()
	for i, p := range inPaths {
		rd, err := scanner.OpenHitRun(p)
		if err != nil {
			return err
		}
		readers[i], srcs[i] = rd, rd
	}
	w, err := scanner.CreateHitRun(outPath)
	if err != nil {
		return err
	}
	m := runs.NewMerger(scanner.LessHit, srcs...)
	var h scanner.Hit
	for {
		var ok bool
		h, ok = m.Next()
		if !ok {
			break
		}
		if err := w.Write(&h); err != nil {
			w.Close()
			return err
		}
	}
	if err := m.Err(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// foldHitStream returns the re-drainable merged hit stream over the
// final level of run files: each drain opens the files, streams their
// stable k-way merge through yield one hit at a time, and closes them.
func foldHitStream(paths []string) func(yield func(h *scanner.Hit)) error {
	return func(yield func(h *scanner.Hit)) error {
		srcs := make([]runs.Source[scanner.Hit], len(paths))
		readers := make([]*scanner.HitRunReader, len(paths))
		defer func() {
			for _, rd := range readers {
				if rd != nil {
					rd.Close()
				}
			}
		}()
		for i, p := range paths {
			rd, err := scanner.OpenHitRun(p)
			if err != nil {
				return err
			}
			readers[i], srcs[i] = rd, rd
		}
		m := runs.NewMerger(scanner.LessHit, srcs...)
		var h scanner.Hit
		for {
			var ok bool
			h, ok = m.Next()
			if !ok {
				break
			}
			yield(&h)
		}
		return m.Err()
	}
}

// foldTargetStream returns the re-drainable merged target stream: the
// population's candidates in view order (= shard concatenation order,
// since shards are contiguous) through the exact admission predicate,
// via a host-less planner's AdmitCheck — same verdicts the shards'
// admission sweeps recorded, no O(targets) slice.
func foldTargetStream(pop ditl.Pop, reg *routing.Registry, cfg scanner.Config) func(yield func(t scanner.Target)) error {
	return func(yield func(t scanner.Target)) error {
		pl := scanner.NewPlanner(reg, cfg)
		check := func(a netip.Addr) {
			if t, ok := pl.AdmitCheck(a); ok {
				yield(t)
			}
		}
		pop.EachAS(nil, func(_ int, as *ditl.ASSpec) {
			for k := 0; k < as.NumResolvers(); k++ {
				r := as.Resolver(k)
				if r.HasV4() {
					check(r.Addr4)
				}
				if r.HasV6() {
					check(r.Addr6)
				}
			}
			for _, d := range as.DeadTargets {
				check(d)
			}
		})
		return nil
	}
}

// CandidateAddrs collects the DITL-derived candidate targets (live
// resolvers and dead addresses alike; the scanner cannot tell them
// apart, §3.6.2) of the population ASes named by indices (nil = all),
// pre-sized from the population counts.
func CandidateAddrs(pop ditl.Pop, indices []int) []netip.Addr {
	out := make([]netip.Addr, 0, pop.CandidateCount(indices))
	pop.EachAS(indices, func(_ int, as *ditl.ASSpec) {
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			if r.HasV4() {
				out = append(out, r.Addr4)
			}
			if r.HasV6() {
				out = append(out, r.Addr6)
			}
		}
		out = append(out, as.DeadTargets...)
	})
	return out
}

// V6HitList derives the IPv6 hit list (§3.2, [21]) from the population:
// the /64s of every known-active v6 address (live resolvers and
// once-seen dead targets alike — activity, not liveness). It is one of
// the few deliberately population-sized structures in the pipeline:
// one /64 per known v6 address, shared read-only by every shard's
// scanner.
func V6HitList(pop ditl.Pop) map[netip.Prefix]bool {
	hl := make(map[netip.Prefix]bool, pop.V6AddrCount())
	add := func(a netip.Addr) {
		if a.IsValid() && a.Is6() {
			hl[routing.SubnetOf(a)] = true
		}
	}
	pop.EachAS(nil, func(_ int, as *ditl.ASSpec) {
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			add(r.Addr6)
		}
		for _, d := range as.DeadTargets {
			add(d)
		}
	})
	return hl
}

// GeoDB builds the country database from the population's AS
// assignments (standing in for MaxMind GeoLite2, §4).
func GeoDB(pop ditl.Pop) *geo.DB {
	db := geo.New()
	pop.EachAS(nil, func(_ int, as *ditl.ASSpec) {
		db.Assign(as.ASN, as.Countries...)
	})
	return db
}
