package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	doors "repro"
	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/resolver"
	"repro/internal/routing"
	"repro/internal/runs"
	"repro/internal/scanner"
	"repro/internal/world"
)

// stages are the replay's stage span names, in pipeline order. Every
// stage span is opened on every engine; where an engine has no such step
// (the retained engine never spills) its span is empty.
var stages = []string{
	"population", "registry", "geo", "v6hitlist", "world_build", "admit",
	"plan", "schedule", "net_run", "seal", "partition", "spill",
	"premerge", "merge", "reduce", "render",
}

// span is one timed interval. bytes and allocs are what the heap
// allocated between its start and end, children included.
type span struct {
	name          string
	parent, shard int
	start, end    time.Duration
	bytes, allocs uint64
}

// tracer records spans around the replay's calls into each layer: wall
// time from the monotonic clock, allocation from runtime/metrics. Spans
// stay in memory until the run ends.
type tracer struct {
	t0    time.Time
	ac    *allocCounter
	spans []span
	open  []int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ac: newAllocCounter(), spans: make([]span, 0, 4096)}
}

func (t *tracer) begin(name string, shard int) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, shard: shard})
	t.open = append(t.open, len(t.spans)-1)
	s := &t.spans[len(t.spans)-1]
	s.bytes, s.allocs = t.ac.read()
	s.start = time.Since(t.t0)
}

func (t *tracer) end() {
	end := time.Since(t.t0)
	s := &t.spans[t.open[len(t.open)-1]]
	t.open = t.open[:len(t.open)-1]
	b, o := t.ac.read()
	s.end, s.bytes, s.allocs = end, b-s.bytes, o-s.allocs
}

// stage runs f inside a span.
func (t *tracer) stage(name string, shard int, f func()) {
	t.begin(name, shard)
	f()
	t.end()
}

// cost is a span's self cost, or a stage's summed over its spans.
type cost struct {
	self          time.Duration
	bytes, allocs uint64
}

// selfCosts returns each span's self cost: its duration and allocation
// minus the parts its child spans cover.
func (t *tracer) selfCosts() []cost {
	self := make([]cost, len(t.spans))
	for i, s := range t.spans {
		self[i].self += s.end - s.start
		self[i].bytes += s.bytes
		self[i].allocs += s.allocs
		if s.parent >= 0 {
			self[s.parent].self -= s.end - s.start
			self[s.parent].bytes -= s.bytes
			self[s.parent].allocs -= s.allocs
		}
	}
	return self
}

// totals sums the self costs of each span name.
func (t *tracer) totals() map[string]cost {
	out := make(map[string]cost)
	for i, c := range t.selfCosts() {
		tot := out[t.spans[i].name]
		tot.self += c.self
		tot.bytes += c.bytes
		tot.allocs += c.allocs
		out[t.spans[i].name] = tot
	}
	return out
}

// layerCounts are the simulation layers' public counters, summed over
// every shard's world after its Net.Run.
type layerCounts struct {
	events    uint64
	delivered uint64
	drops     map[netsim.DropReason]uint64
	resolver  resolver.Stats
	scanner   scanner.Stats
	runFiles  int
	runBytes  int64
}

func (lc *layerCounts) addWorld(w *world.World) {
	lc.events += w.Net.Q.Processed()
	lc.delivered += w.Net.Delivered()
	if lc.drops == nil {
		lc.drops = make(map[netsim.DropReason]uint64)
	}
	for r, n := range w.Net.Drops() {
		lc.drops[r] += n
	}
}

func (lc *layerCounts) addRunFile(path string) {
	if fi, err := os.Stat(path); err == nil {
		lc.runFiles++
		lc.runBytes += fi.Size()
	}
}

// replayer re-runs a survey stage by stage through the engine's
// exported building blocks — ditl, world, scanner, the campaign's
// phases, netsim, analysis, runs and report — one shard at a time, so
// each stage's time and allocation can be attributed. It follows
// internal/campaign's runner step for step; a test pins its Report to
// doors.RunSurveyOn's.
type replayer struct {
	t        *tracer
	cfg      doors.SurveyConfig
	c        *campaign.Campaign
	wopts    world.Options
	scfg     scanner.Config
	shards   int
	dir      string // spill directory (fold engine)
	pop      ditl.Pop
	reg      *routing.Registry
	gdb      *geo.DB
	counts   layerCounts
	reducers []analysis.Reducer
}

// replay runs the whole survey under t, from population synthesis to
// the rendered report. dir must be an empty directory for spill files.
func replay(t *tracer, cfg doors.SurveyConfig, dir string) (*analysis.Report, *replayer, error) {
	rp := &replayer{t: t, cfg: cfg, c: cfg.Campaign, wopts: cfg.World, scfg: cfg.Scanner, dir: dir}
	if rp.c == nil {
		rp.c = campaign.NewSurvey()
	}
	for _, ph := range rp.c.Phases {
		rp.reducers = append(rp.reducers, ph.Reducers()...)
	}
	rp.wopts.Invariants = !cfg.DisableInvariants
	rp.shards = campaign.Config{Shards: cfg.Shards}.ShardCount()

	t.begin("replay", -1)
	defer t.end()
	t.stage("population", -1, func() { rp.pop = population(cfg) })
	streaming := cfg.Stream || cfg.Fold
	if streaming && rp.scfg.V6HitList == nil {
		t.stage("v6hitlist", -1, func() { rp.scfg.V6HitList = campaign.V6HitList(rp.pop) })
	}
	var err error
	t.stage("registry", -1, func() { rp.reg, err = world.BuildRegistry(rp.pop, rp.wopts) })
	if err != nil {
		return nil, rp, err
	}
	var r *analysis.Report
	if streaming {
		r, err = rp.streaming()
	} else {
		r, err = rp.retained()
	}
	if err != nil {
		return nil, rp, err
	}
	t.stage("render", -1, func() { render(r) })
	return r, rp, nil
}

// render formats the report the way cmd/dsavsurvey prints it.
func render(r *analysis.Report) {
	report.Headline(r)
	report.Table1(r)
	report.Table2(r)
	report.Table3(r)
	report.Table4(r)
	report.Sections(r)
	report.ZeroTopPorts(r, 5)
}

// admit streams a shard's candidates into the scanner's admission
// predicate; a non-nil hl also collects the IPv6 hit list on the way.
func (rp *replayer) admit(sc *scanner.Scanner, indices []int, hl map[netip.Prefix]bool) {
	sc.AdmitHint(rp.pop.CandidateCount(indices))
	eachCandidate(rp.pop, indices, func(a netip.Addr) {
		if hl != nil && a.IsValid() && a.Is6() {
			hl[routing.SubnetOf(a)] = true
		}
		sc.AdmitOne(a)
	})
}

func (rp *replayer) input(sc *scanner.Scanner, addr4, addr6 netip.Addr) analysis.Input {
	return analysis.Input{
		Hits:              sc.Hits,
		Partials:          sc.Partials,
		Targets:           sc.Targets,
		ScannerAddrs:      []netip.Addr{addr4, addr6},
		Reg:               rp.reg,
		Geo:               rp.gdb,
		LifetimeThreshold: rp.cfg.LifetimeThreshold,
		FollowUpCount:     rp.cfg.Scanner.FollowUpCount,
	}
}

func (rp *replayer) injector(window time.Duration) *chaos.Injector {
	if !rp.cfg.Chaos.Enabled {
		return nil
	}
	inj := chaos.NewInjector(rp.cfg.Chaos)
	inj.SetWindow(window)
	inj.SetEligibleRegistry(rp.reg)
	return inj
}

// newShard builds one shard's world and its scanner.
func (rp *replayer) newShard(k int, indices []int) (*campaign.Shard, error) {
	w, err := world.BuildWith(rp.pop, rp.reg, rp.wopts, indices)
	if err != nil {
		return nil, err
	}
	sc, err := scanner.New(w.Scanner, w.ScannerAddr4, w.ScannerAddr6, w.Reg, w.Auth, rp.scfg)
	if err != nil {
		return nil, err
	}
	return &campaign.Shard{Index: k, World: w, Scanner: sc}, nil
}

// schedule enqueues a shard's probes, churn and chaos, then arms the
// phases' reactive hooks.
func (rp *replayer) schedule(sh *campaign.Shard, window time.Duration, inj *chaos.Injector) {
	for _, ph := range rp.c.Phases {
		ph.Schedule(sh, window)
	}
	if rp.cfg.ChurnFraction > 0 {
		sh.World.ScheduleChurn(rp.cfg.ChurnFraction, window, rp.scfg.Seed+99)
	}
	if inj != nil {
		sh.World.ScheduleChaos(inj)
	}
	for _, ph := range rp.c.Phases {
		ph.Observe(sh)
	}
}

// simulate runs a shard's simulation, seals its runs and partitions its
// observations, reading the layers' counters in between.
func (rp *replayer) simulate(sh *campaign.Shard) (*analysis.Context, world.InvariantReport) {
	t, k, w, sc := rp.t, sh.Index, sh.World, sh.Scanner
	t.stage("net_run", k, func() { w.Net.Run() })
	rp.counts.addWorld(w)
	t.stage("seal", k, sc.SealRuns)
	var ctx *analysis.Context
	var rs resolver.Stats
	var inv world.InvariantReport
	t.stage("partition", k, func() {
		ctx = analysis.Partition(rp.input(sc, w.ScannerAddr4, w.ScannerAddr6))
		rs = w.ResolverStats()
		if w.Invariants != nil {
			inv = w.Invariants.Report()
		}
	})
	rp.counts.resolver.Add(rs)
	rp.counts.scanner.Add(sc.Stats)
	return ctx, inv
}

func invariantErr(inv *world.InvariantReport) error {
	if inv == nil || inv.Ok() {
		return nil
	}
	return fmt.Errorf("campaign: %d simulation invariant violation(s); first: %s", inv.ViolationCount, inv.Violations[0])
}

// retained replays the retained engine: every shard's world is built
// and admitted, then every shard plans, then all schedule, then each
// simulates in turn.
func (rp *replayer) retained() (*analysis.Report, error) {
	t := rp.t
	parts := ditl.PartitionIndices(rp.pop.NumASes(), rp.shards)
	// The retained engine collects the IPv6 hit list during admission,
	// so this span only allocates the set.
	var hl map[netip.Prefix]bool
	t.stage("v6hitlist", -1, func() {
		if rp.scfg.V6HitList == nil {
			hl = make(map[netip.Prefix]bool, rp.pop.V6AddrCount())
			rp.scfg.V6HitList = hl
		}
	})
	shs := make([]*campaign.Shard, len(parts))
	t.begin("pass_a", -1)
	for k := range parts {
		indices := parts[k]
		if rp.shards == 1 {
			indices = nil
		}
		t.begin("shard", k)
		var err error
		t.stage("world_build", k, func() { shs[k], err = rp.newShard(k, indices) })
		if err != nil {
			return nil, err
		}
		t.stage("admit", k, func() { rp.admit(shs[k].Scanner, indices, hl) })
		t.end()
	}
	probes := 0
	for k, sh := range shs {
		t.begin("shard", k)
		t.stage("plan", k, func() {
			for _, ph := range rp.c.Phases {
				probes += ph.Plan(sh)
			}
		})
		t.end()
	}
	t.end()

	t.stage("schedule", -1, func() {
		window := scanner.CampaignDuration(probes, shs[0].Scanner.Cfg.Rate)
		inj := rp.injector(window)
		for _, sh := range shs {
			rp.schedule(sh, window, inj)
		}
	})
	t.stage("geo", -1, func() { rp.gdb = campaign.GeoDB(rp.pop) })

	ctxs := make([]*analysis.Context, len(shs))
	invs := make([]world.InvariantReport, len(shs))
	t.begin("pass_b", -1)
	for k, sh := range shs {
		t.begin("shard", k)
		ctxs[k], invs[k] = rp.simulate(sh)
		t.stage("spill", k, func() {}) // the retained engine keeps its buffers
		t.end()
	}
	t.end()
	t.stage("premerge", -1, func() {})

	sc := shs[0].Scanner
	var inv *world.InvariantReport
	t.stage("merge", -1, func() {
		if len(shs) > 1 {
			bufs := make([]*scanner.Scanner, len(shs))
			for k, o := range shs {
				bufs[k] = o.Scanner
			}
			m := mergeBuffers(bufs)
			sc.Targets, sc.Hits, sc.Partials = m.Targets, m.Hits, m.Partials
			for _, o := range shs[1:] {
				sc.Stats.Add(o.Scanner.Stats)
			}
		}
		inv = rp.mergeInvariants(invs)
	})
	if err := invariantErr(inv); err != nil {
		return nil, err
	}
	r := &analysis.Report{}
	t.stage("reduce", -1, func() {
		w0 := shs[0].World
		analysis.MergeContexts(rp.input(sc, w0.ScannerAddr4, w0.ScannerAddr6), ctxs).Reduce(r, rp.reducers)
	})
	return r, nil
}

func (rp *replayer) mergeInvariants(invs []world.InvariantReport) *world.InvariantReport {
	if rp.cfg.DisableInvariants {
		return nil
	}
	merged := world.InvariantReport{}
	for _, inv := range invs {
		merged.Add(inv)
	}
	return &merged
}

// mergeBuffers concatenates the shards' targets in shard order and
// k-way merges their sealed hit and partial runs.
func mergeBuffers(bufs []*scanner.Scanner) *scanner.Scanner {
	nT, nH, nP := 0, 0, 0
	hitRuns := make([][]scanner.Hit, len(bufs))
	partRuns := make([][]scanner.PartialHit, len(bufs))
	for k, b := range bufs {
		nT += len(b.Targets)
		nH += len(b.Hits)
		nP += len(b.Partials)
		hitRuns[k], partRuns[k] = b.Hits, b.Partials
	}
	targets := make([]scanner.Target, 0, nT)
	for _, b := range bufs {
		targets = append(targets, b.Targets...)
	}
	return &scanner.Scanner{
		Targets:  targets,
		Hits:     runs.MergeSlices(make([]scanner.Hit, 0, nH), scanner.LessHit, hitRuns...),
		Partials: runs.MergeSlices(make([]scanner.PartialHit, 0, nP), scanner.LessPartial, partRuns...),
	}
}

// shardOut is what the streaming replay keeps of a finished shard: its
// result buffers (nil under the fold engine) but not its world.
type shardOut struct {
	bufs         *scanner.Scanner
	addr4, addr6 netip.Addr
	ctx          *analysis.Context
	inv          world.InvariantReport
	runPath      string
}

// streaming replays the streaming and fold engines: pass A admits and
// plans every shard without a world to fix the campaign window, pass B
// builds, re-plans, schedules and simulates each shard, and the reduce
// merges the shards' runs (spilled and pre-merged under the fold
// engine).
func (rp *replayer) streaming() (*analysis.Report, error) {
	t := rp.t
	parts := ditl.PartitionIndices(rp.pop.NumASes(), rp.shards)
	probes := 0
	var rate float64
	t.begin("pass_a", -1)
	for k := range parts {
		t.begin("shard", k)
		var pl *scanner.Scanner
		t.stage("admit", k, func() {
			pl = scanner.NewPlanner(rp.reg, rp.scfg)
			rp.admit(pl, parts[k], nil)
		})
		if k == 0 {
			rate = pl.Cfg.Rate
		}
		sh := &campaign.Shard{Index: k, Scanner: pl}
		t.stage("plan", k, func() {
			for _, ph := range rp.c.Phases {
				probes += ph.Plan(sh)
			}
		})
		t.end()
	}
	t.end()
	var window time.Duration
	var inj *chaos.Injector
	t.stage("schedule", -1, func() {
		window = scanner.CampaignDuration(probes, rate)
		inj = rp.injector(window)
	})
	t.stage("geo", -1, func() { rp.gdb = campaign.GeoDB(rp.pop) })

	outs := make([]shardOut, len(parts))
	t.begin("pass_b", -1)
	for k := range parts {
		t.begin("shard", k)
		var sh *campaign.Shard
		var err error
		t.stage("world_build", k, func() { sh, err = rp.newShard(k, parts[k]) })
		if err != nil {
			return nil, err
		}
		t.stage("admit", k, func() { rp.admit(sh.Scanner, parts[k], nil) })
		t.stage("plan", k, func() {
			for _, ph := range rp.c.Phases {
				ph.Plan(sh)
			}
		})
		t.stage("schedule", k, func() { rp.schedule(sh, window, inj) })
		o := &outs[k]
		o.ctx, o.inv = rp.simulate(sh)
		o.addr4, o.addr6 = sh.World.ScannerAddr4, sh.World.ScannerAddr6
		t.stage("spill", k, func() {
			if !rp.cfg.Fold {
				sc := sh.Scanner
				o.bufs = &scanner.Scanner{Targets: sc.Targets, Hits: sc.Hits, Partials: sc.Partials}
				return
			}
			o.runPath = filepath.Join(rp.dir, fmt.Sprintf("shard-%05d.run", k))
			err = scanner.WriteHitRun(o.runPath, sh.Scanner.Hits)
		})
		if err != nil {
			return nil, err
		}
		if o.runPath != "" {
			rp.counts.addRunFile(o.runPath)
		}
		t.end()
	}
	t.end()

	var paths []string
	var err error
	t.stage("premerge", -1, func() {
		if !rp.cfg.Fold {
			return
		}
		paths = make([]string, len(outs))
		for k, o := range outs {
			paths[k] = o.runPath
		}
		paths, err = rp.reduceRuns(paths)
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: fold pre-merge: %w", err)
	}

	var in analysis.Input
	ctxs := make([]*analysis.Context, len(outs))
	var inv *world.InvariantReport
	t.stage("merge", -1, func() {
		invs := make([]world.InvariantReport, len(outs))
		for k, o := range outs {
			ctxs[k], invs[k] = o.ctx, o.inv
		}
		inv = rp.mergeInvariants(invs)
		// Every shard world shares the scanner's addresses.
		addr4, addr6 := outs[0].addr4, outs[0].addr6
		if rp.cfg.Fold {
			in = analysis.Input{
				ScannerAddrs:      []netip.Addr{addr4, addr6},
				Reg:               rp.reg,
				Geo:               rp.gdb,
				LifetimeThreshold: rp.cfg.LifetimeThreshold,
				FollowUpCount:     rp.cfg.Scanner.FollowUpCount,
				Stream: &analysis.Streams{
					Hits:    hitStream(paths),
					Targets: rp.targetStream(),
				},
			}
			return
		}
		bufs := make([]*scanner.Scanner, len(outs))
		for k, o := range outs {
			bufs[k] = o.bufs
		}
		in = rp.input(mergeBuffers(bufs), addr4, addr6)
	})
	r := &analysis.Report{}
	t.stage("reduce", -1, func() {
		mctx := analysis.MergeContexts(in, ctxs)
		mctx.Reduce(r, rp.reducers)
		err = mctx.Err()
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: fold reduce: %w", err)
	}
	if err := invariantErr(inv); err != nil {
		return nil, err
	}
	return r, nil
}

// fanIn is the fold engine's merge fan-in: at most this many run files
// are open at once.
const fanIn = 16

// reduceRuns pre-merges the spilled shard runs in contiguous groups of
// fanIn, level by level, until at most fanIn files remain.
func (rp *replayer) reduceRuns(paths []string) ([]string, error) {
	for gen := 0; len(paths) > fanIn; gen++ {
		next := make([]string, 0, (len(paths)+fanIn-1)/fanIn)
		for i := 0; i < len(paths); i += fanIn {
			group := paths[i:min(i+fanIn, len(paths))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			out := filepath.Join(rp.dir, fmt.Sprintf("merge-%d-%05d.run", gen, i/fanIn))
			if err := mergeRunFiles(out, group); err != nil {
				return nil, err
			}
			rp.counts.addRunFile(out)
			for _, p := range group {
				os.Remove(p)
			}
			next = append(next, out)
		}
		paths = next
	}
	return paths, nil
}

// openRuns opens run files as merge sources; close releases them.
func openRuns(paths []string) (srcs []runs.Source[scanner.Hit], close func(), err error) {
	readers := make([]*scanner.HitRunReader, 0, len(paths))
	close = func() {
		for _, rd := range readers {
			rd.Close()
		}
	}
	for _, p := range paths {
		rd, err := scanner.OpenHitRun(p)
		if err != nil {
			close()
			return nil, nil, err
		}
		readers = append(readers, rd)
		srcs = append(srcs, rd)
	}
	return srcs, close, nil
}

// mergeRunFiles streams the stable k-way merge of the input runs into a
// new run file.
func mergeRunFiles(outPath string, inPaths []string) error {
	srcs, closeRuns, err := openRuns(inPaths)
	if err != nil {
		return err
	}
	defer closeRuns()
	w, err := scanner.CreateHitRun(outPath)
	if err != nil {
		return err
	}
	m := runs.NewMerger(scanner.LessHit, srcs...)
	for h, ok := m.Next(); ok; h, ok = m.Next() {
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

// hitStream is the re-drainable merged hit stream over the final level
// of run files.
func hitStream(paths []string) func(yield func(h *scanner.Hit)) error {
	return func(yield func(h *scanner.Hit)) error {
		srcs, closeRuns, err := openRuns(paths)
		if err != nil {
			return err
		}
		defer closeRuns()
		m := runs.NewMerger(scanner.LessHit, srcs...)
		for h, ok := m.Next(); ok; h, ok = m.Next() {
			yield(&h)
		}
		return m.Err()
	}
}

// targetStream is the re-drainable merged target list: the population's
// candidates in order through a host-less planner's admission check.
func (rp *replayer) targetStream() func(yield func(t scanner.Target)) error {
	return func(yield func(t scanner.Target)) error {
		pl := scanner.NewPlanner(rp.reg, rp.scfg)
		eachCandidate(rp.pop, nil, func(a netip.Addr) {
			if t, ok := pl.AdmitCheck(a); ok {
				yield(t)
			}
		})
		return nil
	}
}
