package campaign

import (
	"fmt"
	"math"
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

// Config parameterizes a campaign run: the phase list and the engine
// knobs every campaign shares. doors.SurveyConfig is this type.
type Config struct {
	// Population parameterizes the synthetic DITL target world that
	// doors.RunSurvey generates (a streaming ditl.View under Stream or
	// Fold). Run surveys the population it is handed and ignores it.
	Population ditl.Params
	// Campaign selects the phase list to run; nil runs the default
	// survey campaign (reachability + characterization).
	Campaign *Campaign
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
	// Stream drops each shard's world when its shard ends instead of
	// keeping every world on the Result. Every run builds a shard's
	// world (typically from a ditl.View, which synthesizes specs on
	// demand) only when its worker starts; with Stream the world is
	// garbage once the shard's observations are partitioned, so peak
	// residency is the largest set of concurrently live shards, not the
	// population. The merged Result is bit-identical either way; the
	// trade-off is that Result.World and Result.Worlds are nil
	// (Result.Scanner carries the merged buffers, registry, and scanner
	// addresses).
	Stream bool
	// MaxParallel bounds how many shard worlds are built and simulated
	// at once. 0 picks runtime.GOMAXPROCS(0). Under Stream or Fold it is
	// the peak-memory knob — RSS scales with MaxParallel × shard size;
	// otherwise every finished world is kept, so peak memory still ends
	// at all of them.
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
// saturating, a negative probe rate packing the scan into one second)
// or that panic mid-run (a negative MaxOtherPrefix), naming the
// offending field.
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
	case c.World.AllDSAV && c.World.NoDSAV:
		return fmt.Errorf("campaign: World.AllDSAV = true and World.NoDSAV = true; want at most one DSAV counterfactual")
	case !(c.Scanner.Rate >= 0 && c.Scanner.Rate <= math.MaxFloat64):
		return fmt.Errorf("campaign: Scanner.Rate = %v; want 0 (the default) or a positive, finite rate", c.Scanner.Rate)
	case c.Scanner.MaxOtherPrefix < 0:
		return fmt.Errorf("campaign: Scanner.MaxOtherPrefix = %d; want 0 (the default) or a positive cap", c.Scanner.MaxOtherPrefix)
	case c.Scanner.FollowUpCount < 0:
		return fmt.Errorf("campaign: Scanner.FollowUpCount = %d; want 0 (the default) or a positive count", c.Scanner.FollowUpCount)
	case c.Scanner.FollowUpSpacing < 0:
		return fmt.Errorf("campaign: Scanner.FollowUpSpacing = %v; want 0 (the default) or a positive duration", c.Scanner.FollowUpSpacing)
	}
	if err := c.Chaos.Validate(); err != nil {
		return fmt.Errorf("campaign: Chaos.%w", err)
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
	// shard's world, each kept when its shard ends. Both are nil under
	// Config.Stream (and Fold), which drop each world as soon as its
	// shard's observations are partitioned.
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
	// shards, in shard order — the server-side complement to
	// Scanner.Stats.
	ResolverStats resolver.Stats

	// Invariants is the merged invariant-checker report (nil when the
	// checker was disabled).
	Invariants *world.InvariantReport
	// ChaosCrashes is the number of resolver crashes the chaos schedule
	// injected across all shards (0 without chaos). Each crash drops
	// the crashed resolver's in-flight queries and flushes its cache.
	ChaosCrashes int
}

// Run executes cfg.Campaign over the population as one pipeline of a
// setup sweep, pass A, pass B and a merge. A nil cfg.Campaign runs the
// default survey campaign.
//
// The population's ASes are partitioned into contiguous shards, each
// simulated in its own world (own event queue, own scanner instance)
// over one shared read-only routing registry. Run sweeps the population
// three times, and synthesizes each AS once per sweep: the passes work
// on a view marked at every shard's first AS (ditl.Marked), so a
// shard's sweep starts there without replaying the ASes before it.
//
// The setup sweep builds the registry and, on the way, the geo database
// and the IPv6 hit list.
//
// Pass A (sequential) admits every shard's candidates on a host-less
// planner, builds no world, and sums every phase's Count. It yields the
// campaign-wide probe total before any shard plans or schedules, so the
// campaign window — and with it every probe timestamp and the chaos
// fault schedule — is identical at every shard count. Each planner is
// dropped after its iteration: keeping all K would be O(total targets).
//
// Pass B runs runShard for every shard on a worker pool bounded by
// MaxParallel: build the world and admit in one sweep, plan once (a
// total that differs from the shard's count fails the run), schedule,
// churn and chaos, observe, simulate, seal and partition, then keep the
// runs in memory or spill them, and keep the world unless Stream or
// Fold is set. Workers share no mutable state: each reads frozen inputs
// and writes only its own result.
//
// One merge then combines the shards' scanner and resolver stats,
// partial reductions, public DNS and invariant reports in shard order,
// and reduces the canonically ordered buffers — merged in memory, or
// streamed from the spilled runs — into the Report with the phases'
// deduplicated reducer set. The same seeds produce the same Report at
// any shard count, including 1, whether worlds are kept and runs
// spilled or not.
func Run(pop ditl.Pop, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := cfg.Campaign
	if c == nil {
		c = NewSurvey()
	}
	shards := cfg.ShardCount()
	parts := ditl.PartitionIndices(pop.NumASes(), shards)
	starts := make([]int, 0, shards)
	for _, indices := range parts {
		if len(indices) > 0 {
			starts = append(starts, indices[0])
		}
	}
	if shards == 1 {
		parts[0] = nil // build everything; preserves Build's fast path
	}
	view := ditl.Marked(pop, starts)

	// The setup sweep. Every shard's scanner needs the complete IPv6
	// hit list before any Count, and pass B the geo database.
	gdb := geo.New()
	collect := cfg.Scanner.V6HitList == nil
	if collect {
		cfg.Scanner.V6HitList = make(map[netip.Prefix]bool, pop.V6AddrCount())
	}
	hitList := cfg.Scanner.V6HitList
	cfg.World.Invariants = !cfg.DisableInvariants
	reg, err := world.BuildRegistry(view, cfg.World, func(_ int, as *ditl.ASSpec) {
		gdb.Assign(as.ASN, as.Countries...)
		if collect {
			addV6Subnets(hitList, as)
		}
	})
	if err != nil {
		return nil, err
	}

	// Pass A: count every shard's probes on a host-less planner.
	counts := make([]int, shards)
	probes := 0
	var planCfg scanner.Config
	for k, indices := range parts {
		sh := &Shard{Index: k, Scanner: scanner.NewPlanner(reg, cfg.Scanner)}
		admit(sh.Scanner, view, indices)
		for _, ph := range c.Phases {
			counts[k] += ph.Count(sh)
		}
		probes += counts[k]
		planCfg = sh.Scanner.Cfg
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
	// population view are all read-only across workers, and each worker
	// writes only its own outs slot.
	outs := make([]*shardOut, shards)
	sem := make(chan struct{}, cfg.maxParallel())
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func(k int, pop ditl.Pop, cfg Config, gdb *geo.DB, inj *chaos.Injector) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outs[k] = runShard(c, pop, cfg, reg, gdb, inj, k, parts[k], counts[k], duration, foldDir)
		}(k, view, cfg, gdb, inj)
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
	var rstats resolver.Stats
	ctxs := make([]*analysis.Context, shards)
	chaosCrashes := 0
	nDNS := len(outs[0].publicDNS)
	for k, o := range outs {
		stats.Add(o.stats)
		rstats.Add(o.rstats)
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
			Stream:            &analysis.Streams{Hits: foldHitStream(paths)},
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
		ResolverStats: rstats,
		Invariants:    inv, ChaosCrashes: chaosCrashes,
	}
	if !cfg.Stream && !cfg.Fold {
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
// resolvers, caches, zones, and the event queue — rides along unless
// Stream or Fold is set; then it is garbage the moment the shard's
// worker returns.
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
	// world is the shard's world (nil under Stream or Fold).
	world *world.World
	// runPath is the shard's spilled sorted hit run (Fold only;
	// targets/hits/partials above stay nil in that mode).
	runPath string
	err     error
}

// admit streams the shard's candidates straight off the population
// view into the scanner's admission predicate, with no intermediate
// slice.
func admit(sc *scanner.Scanner, pop ditl.Pop, indices []int) {
	sc.AdmitHint(pop.CandidateCount(indices))
	ditl.EachCandidate(pop, indices, sc.AdmitOne)
}

// runShard simulates one shard end to end: build its world and admit in
// one sweep, plan (which must match pass A's count), schedule, churn and
// chaos, observe, run, seal, partition — and, when foldDir is set, spill
// the sealed hit run to disk and drop the buffers. The world rides out
// on the shardOut unless Stream or Fold is set; otherwise everything but
// the shardOut is garbage when it returns.
func runShard(c *Campaign, pop ditl.Pop, cfg Config, reg *routing.Registry, gdb *geo.DB, inj *chaos.Injector, k int, indices []int, count int, duration time.Duration, foldDir string) *shardOut {
	// Admission needs only the registry, so the scanner admits as a
	// planner while the world builds and takes its host afterwards.
	sc := scanner.NewPlanner(reg, cfg.Scanner)
	sc.AdmitHint(pop.CandidateCount(indices))
	w, err := world.BuildWith(pop, reg, cfg.World, indices, func(_ int, as *ditl.ASSpec) {
		as.EachCandidate(sc.AdmitOne)
	})
	if err != nil {
		return &shardOut{err: err}
	}
	if err := sc.Attach(w.Scanner, w.ScannerAddr4, w.ScannerAddr6, w.Auth); err != nil {
		return &shardOut{err: err}
	}
	sh := &Shard{Index: k, World: w, Scanner: sc}
	planned := 0
	for _, ph := range c.Phases {
		planned += ph.Plan(sh)
	}
	if planned != count {
		return &shardOut{err: fmt.Errorf("campaign: shard %d planned %d probes but pass A counted %d", k, planned, count)}
	}
	out := &shardOut{}
	if !cfg.Stream && !cfg.Fold {
		out.world = w
	}
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
		// need no spill (folded into the per-shard qmin sets), nor does
		// the target list (counted per AS).
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
	w, err := scanner.CreateHitRun(outPath)
	if err != nil {
		return err
	}
	if err := drainRuns(inPaths, w.Write); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// foldHitStream returns the re-drainable merged hit stream over the
// final level of run files.
func foldHitStream(paths []string) func(yield func(h *scanner.Hit)) error {
	return func(yield func(h *scanner.Hit)) error {
		return drainRuns(paths, func(h *scanner.Hit) error {
			yield(h)
			return nil
		})
	}
}

// drainRuns opens the run files, streams their stable k-way merge
// through fn one hit at a time, and closes them. fn's *Hit is valid
// only for the call.
func drainRuns(paths []string, fn func(h *scanner.Hit) error) error {
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
	// One Hit for the whole drain: a per-iteration variable would put
	// every hit on the heap, since fn sees its address.
	var h scanner.Hit
	for {
		var ok bool
		h, ok = m.Next()
		if !ok {
			break
		}
		if err := fn(&h); err != nil {
			return err
		}
	}
	return m.Err()
}

// V6HitList derives the IPv6 hit list (§3.2, [21]) from the population:
// the /64s of every known-active v6 address (live resolvers and
// once-seen dead targets alike — activity, not liveness). It is one of
// the few deliberately population-sized structures in the pipeline:
// one /64 per known v6 address, shared read-only by every shard's
// scanner. Run collects the same list in its setup sweep; this
// stand-alone sweep stays for perfbench's traced replay
// (perfbench/replay.go) and goes with it.
func V6HitList(pop ditl.Pop) map[netip.Prefix]bool {
	hl := make(map[netip.Prefix]bool, pop.V6AddrCount())
	pop.EachAS(nil, func(_ int, as *ditl.ASSpec) { addV6Subnets(hl, as) })
	return hl
}

// addV6Subnets adds the /64 of each of the AS's IPv6 candidates to the
// hit list.
//
//doors:scratch as
func addV6Subnets(hl map[netip.Prefix]bool, as *ditl.ASSpec) {
	as.EachCandidate(func(a netip.Addr) {
		if a.Is6() {
			hl[routing.SubnetOf(a)] = true
		}
	})
}

// GeoDB builds the country database from the population's AS
// assignments (standing in for MaxMind GeoLite2, §4). Run assigns the
// same countries in its setup sweep; this stand-alone sweep stays for
// perfbench's traced replay (perfbench/replay.go) and goes with it.
func GeoDB(pop ditl.Pop) *geo.DB {
	db := geo.New()
	pop.EachAS(nil, func(_ int, as *ditl.ASSpec) {
		db.Assign(as.ASN, as.Countries...)
	})
	return db
}
