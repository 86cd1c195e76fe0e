package main

import (
	"fmt"
	"net/netip"

	doors "repro"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/scanner"
	"repro/internal/world"
)

// fixedSeed fixes every workload's population and fault schedule: the
// simulated Internet a workload surveys is the same on every run. The
// workload seed drives the measurement over it — the scanner's source
// selection and transaction IDs, the churn schedule, the simulator's
// latency jitter — so one seed always yields the same inputs.
// Populations drawn from different seeds differ so much in reachable
// resolvers (and with them follow-up traffic), and fault schedules in
// crashes and retries, that the spread across seeds would hide most
// changes.
const fixedSeed = 3

// workload is one benchmark input: a survey configuration generated
// from a seed at a given population size.
type workload struct {
	name string
	// ases is the population size a benchmark run uses.
	ases int
	// targets is the recorded admitted-target count at that size; a
	// survey admitting another count fails the output check. A change
	// that moves it must say why.
	targets int
	config  func(seed int64, ases int) doors.SurveyConfig
}

var workloads = []workload{
	{
		// The default campaign on the retained engine: the simulation
		// (packet path, resolver stack, authoritative servers, event
		// queue) dominates.
		name:    "survey",
		ases:    400,
		targets: 17800,
		config: func(seed int64, ases int) doors.SurveyConfig {
			return doors.SurveyConfig{
				Population: ditl.Params{Seed: fixedSeed, ASes: ases},
				Scanner:    scanner.Config{Seed: seed, Rate: 50000},
				World:      world.Options{Seed: seed},
				Shards:     2,
			}
		},
	},
	{
		// The same campaign on the streaming engine under faults:
		// duplicated, reordered and corrupted packets, resolver crashes,
		// churn and transit loss drive the retransmission paths.
		name:    "survey-chaos",
		ases:    400,
		targets: 17800,
		config: func(seed int64, ases int) doors.SurveyConfig {
			return doors.SurveyConfig{
				Population:    ditl.Params{Seed: fixedSeed, ASes: ases},
				Scanner:       scanner.Config{Seed: seed, Rate: 50000},
				World:         world.Options{Seed: seed, LossRate: 0.01},
				Chaos:         chaos.Default(fixedSeed),
				ChurnFraction: 0.1,
				Shards:        8,
				MaxParallel:   2,
				Stream:        true,
			}
		},
	},
	{
		// The paper-scale inbound-SAV scan at a fraction of the size,
		// with the same per-target cost: planning, population replay,
		// spill, pre-merge and the streamed reduce dominate.
		name:    "paperscale-sav",
		ases:    400,
		targets: 98205,
		config: func(seed int64, ases int) doors.SurveyConfig {
			return doors.SurveyConfig{
				Population:  ditl.Params{Seed: fixedSeed, ASes: ases, DeadTargetMean: 200},
				Campaign:    campaign.NewInboundSAV(),
				Scanner:     scanner.Config{Seed: seed, Rate: 20_000_000},
				World:       world.Options{Seed: seed},
				Shards:      64,
				MaxParallel: 2,
				Fold:        true,
			}
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// population synthesizes the survey's population the way doors.RunSurvey
// does: a streaming view for the streaming engines, a materialized
// population for the retained one.
func population(cfg doors.SurveyConfig) ditl.Pop {
	if cfg.Stream || cfg.Fold {
		return ditl.NewView(cfg.Population)
	}
	return ditl.Generate(cfg.Population)
}

// eachCandidate visits the DITL-derived candidate targets of the ASes
// named by indices (nil = all) in population order: every live
// resolver's v4 and v6 address, then the AS's dead targets.
func eachCandidate(pop ditl.Pop, indices []int, fn func(a netip.Addr)) {
	pop.EachAS(indices, func(_ int, as *ditl.ASSpec) {
		for k := 0; k < as.NumResolvers(); k++ {
			r := as.Resolver(k)
			if r.HasV4() {
				fn(r.Addr4)
			}
			if r.HasV6() {
				fn(r.Addr6)
			}
		}
		for _, d := range as.DeadTargets {
			fn(d)
		}
	})
}
