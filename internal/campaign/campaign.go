// Package campaign decomposes the survey pipeline into a composable
// phase engine. A measurement campaign is a named, ordered list of
// phases; the runner (Run) owns everything every campaign shares —
// population sharding, the survey-wide probe window, the chaos fault
// schedule, invariant merging, and the canonical result merge — while
// each Phase contributes its probe count and plan, its schedule, its
// reactive hooks, and the analysis reducers that consume its
// observations.
//
// The paper's survey is the default campaign: a spoofed reachability
// phase (§3.2) plus a reactive characterization phase (§3.5). The
// inbound-SAV campaign reuses the same engine with a different phase
// list — one spoofed internal source per target and no follow-ups, in
// the style of the Closed Resolver Project — which is what makes
// ablations like "reachability with and without characterization
// traffic" one-line experiments.
//
// Determinism contract: a phase may key randomness only on causal
// identity (detrand over the probed target, never shared streams), must
// derive probe timing from the survey-wide window passed to Schedule,
// and must keep Count and Plan free of side effects outside its own
// Shard — then the merged Result is bit-identical at every shard count,
// exactly as for the monolithic engine it replaces.
package campaign

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/scanner"
	"repro/internal/world"
)

// Phase names, usable with NewFromPhases and the -phases flag.
const (
	PhaseReachability     = "reachability"
	PhaseCharacterization = "characterization"
	PhaseInboundSAV       = "inbound-sav"
)

// Phase is one stage of a measurement campaign. The runner counts every
// phase's probes on every shard first, then drives each shard through
// Plan → Schedule → Observe before its simulation runs; Reducers
// contributes the phase's slice of the analysis after the merged
// observations are partitioned.
//
// One Phase value is shared read-only by every shard, so a phase keeps
// no plan of its own: a probing phase plans on the shard's scanner
// (scanner.PlanWith), which holds every planned probe and puts it on
// the event queue.
type Phase interface {
	// Name identifies the phase in the -phases selection.
	Name() string
	// Count returns the number of probes Plan will return for the
	// shard, from its admitted targets alone: the shard has a host-less
	// planner (scanner.NewPlanner) and no world. Counts run on every
	// shard before any Plan, so the campaign window can derive from the
	// survey-wide probe total; Count must keep no state.
	Count(sh *Shard) int
	// Plan precomputes the phase's probe set for the shard, now built
	// with its world, and returns its probe count. The runner fails the
	// campaign, naming the shard, when the phases' Plan totals differ
	// from their Count totals.
	Plan(sh *Shard) int
	// Schedule places the planned probes on the shard's event queue.
	// window is the survey-wide campaign duration — identical at every
	// shard count — and all probe times must derive from it and from
	// per-target causal identity. A probing phase calls the scanner's
	// Schedule, which arms every plan made since its last call, so the
	// first probing phase to schedule arms the plans of all of them, in
	// plan order.
	Schedule(sh *Shard, window time.Duration)
	// Observe installs reactive hooks (e.g. the scanner's FollowUp
	// trigger) before the simulation runs. Purely scheduled phases leave
	// it a no-op.
	Observe(sh *Shard)
	// Reducers lists the analysis reducers that turn the campaign's
	// merged observations into this phase's slice of the Report. The
	// runner deduplicates by reducer name across phases.
	Reducers() []analysis.Reducer
}

// Campaign is a named, ordered phase list. One Campaign value is shared
// read-only by every shard goroutine, so it is frozen after
// construction: no code outside a constructor may write through it —
// the frozenshare analyzer proves that statically.
//
//doors:frozen
type Campaign struct {
	Name   string
	Phases []Phase
}

// reducers concatenates the phases' reducer lists in phase order.
// analysis.Context.Reduce deduplicates by name, so two phases sharing a
// reducer still run it exactly once.
func (c *Campaign) reducers() []analysis.Reducer {
	var out []analysis.Reducer
	for _, ph := range c.Phases {
		out = append(out, ph.Reducers()...)
	}
	return out
}

// NewSurvey returns the paper's default campaign: the spoofed
// reachability scan plus reactive per-resolver characterization.
func NewSurvey() *Campaign {
	return &Campaign{Name: "survey", Phases: []Phase{reachabilityPhase{}, characterizationPhase{}}}
}

// NewInboundSAV returns the inbound-SAV-only campaign: one spoofed
// target-internal source per target and no follow-ups, Closed-Resolver
// style.
func NewInboundSAV() *Campaign {
	return &Campaign{Name: "inbound-sav", Phases: []Phase{inboundSAVPhase{}}}
}

// ByName returns a registered campaign: "survey" (also "", the default)
// or "inbound-sav".
func ByName(name string) (*Campaign, error) {
	switch name {
	case "", "survey":
		return NewSurvey(), nil
	case "inbound-sav":
		return NewInboundSAV(), nil
	}
	return nil, fmt.Errorf("campaign: unknown campaign %q (have survey, inbound-sav)", name)
}

// NewFromPhases assembles a custom campaign from phase names, in order.
func NewFromPhases(names []string) (*Campaign, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("campaign: no phases named")
	}
	phases := make([]Phase, 0, len(names))
	for _, n := range names {
		ph, err := phaseByName(n)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}
	return &Campaign{Name: "custom:" + strings.Join(names, "+"), Phases: phases}, nil
}

func phaseByName(name string) (Phase, error) {
	switch name {
	case PhaseReachability:
		return reachabilityPhase{}, nil
	case PhaseCharacterization:
		return characterizationPhase{}, nil
	case PhaseInboundSAV:
		return inboundSAVPhase{}, nil
	}
	return nil, fmt.Errorf("campaign: unknown phase %q (have %s, %s, %s)",
		name, PhaseReachability, PhaseCharacterization, PhaseInboundSAV)
}

// Shard is one shard's mutable simulation state: its world and its
// scanner instance, which holds the phases' planned probes. Pass A's
// shards, which only Count, have no world and a host-less planner for a
// scanner. Shards are confined to one goroutine each; only the runner's
// merge step reads across them, after every simulation has finished.
type Shard struct {
	Index   int
	World   *world.World
	Scanner *scanner.Scanner
}
