package world_test

import (
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/scanner"
	"repro/internal/world"
)

// surveyRun is what one hand-driven survey of a world leaves behind.
type surveyRun struct {
	drops     map[netsim.DropReason]uint64
	delivered uint64
	events    uint64
	hits      []scanner.Hit
	partials  []scanner.PartialHit
	stats     scanner.Stats
	resolvers resolver.Stats
}

// runSurvey builds a world over pop, schedules the scanner's probes and
// follow-ups (and, with faults, the chaos schedule and churn), and runs
// it, with or without a tracer attached.
func runSurvey(t *testing.T, pop ditl.Pop, lossRate float64, faults, traced bool) surveyRun {
	t.Helper()
	opts := world.Options{Seed: 5, LossRate: lossRate}
	reg, err := world.BuildRegistry(pop, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.BuildWith(pop, reg, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		w.Net.SetTracer(netsim.NewTracer(1))
	}
	sc, err := scanner.New(w.Scanner, w.ScannerAddr4, w.ScannerAddr6, w.Reg, w.Auth,
		scanner.Config{Seed: 14, Rate: 20000})
	if err != nil {
		t.Fatal(err)
	}
	ditl.EachCandidate(pop, nil, func(a netip.Addr) { sc.AdmitOne(a) })
	sc.FollowUp = sc.ScheduleFollowUps
	window := scanner.CampaignDuration(sc.Plan(), sc.Cfg.Rate)
	sc.Schedule(window)
	if faults {
		inj := chaos.NewInjector(chaos.Default(7))
		inj.SetWindow(window)
		inj.SetEligibleRegistry(w.Reg)
		w.ScheduleChaos(inj)
		w.ScheduleChurn(0.1, window, 99)
	}
	w.Net.Run()
	sc.SealRuns()
	return surveyRun{
		drops: w.Net.Drops(), delivered: w.Net.Delivered(), events: w.Net.Q.Processed(),
		hits: sc.Hits, partials: sc.Partials, stats: sc.Stats, resolvers: w.ResolverStats(),
	}
}

// TestByteAndSkipPathsAgree surveys one population twice: through the
// byte path (a tracer attached, so every datagram is built, scheduled
// and judged at arrival) and through the skip (doomed datagrams counted
// without being built or scheduled). Drops by reason, deliveries, hits
// and every counter must agree; only the event count may fall. With
// loss and chaos on, a doomed datagram is written on the network's
// scratch buffer for the draws, and only a corrupted one travels.
func TestByteAndSkipPathsAgree(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 13, ASes: 120})
	for _, c := range []struct {
		name     string
		lossRate float64
		faults   bool
	}{
		{"clean", 0, false},
		{"chaos and loss", 0.01, true},
	} {
		bytePath := runSurvey(t, pop, c.lossRate, c.faults, true)
		skip := runSurvey(t, pop, c.lossRate, c.faults, false)
		t.Logf("%s: drops %v, delivered %d, %d hits; events %d on the byte path, %d with the skip",
			c.name, skip.drops, skip.delivered, len(skip.hits), bytePath.events, skip.events)
		if !reflect.DeepEqual(bytePath.drops, skip.drops) || bytePath.delivered != skip.delivered {
			t.Errorf("%s: byte path drops %v, delivered %d; skip drops %v, delivered %d",
				c.name, bytePath.drops, bytePath.delivered, skip.drops, skip.delivered)
		}
		if !reflect.DeepEqual(bytePath.hits, skip.hits) || !reflect.DeepEqual(bytePath.partials, skip.partials) {
			t.Errorf("%s: hits differ: %d vs %d, partials %d vs %d",
				c.name, len(bytePath.hits), len(skip.hits), len(bytePath.partials), len(skip.partials))
		}
		if bytePath.stats != skip.stats || bytePath.resolvers != skip.resolvers {
			t.Errorf("%s: scanner %+v vs %+v; resolvers %+v vs %+v",
				c.name, bytePath.stats, skip.stats, bytePath.resolvers, skip.resolvers)
		}
		if len(skip.hits) == 0 || skip.drops[netsim.DropDSAV] == 0 || skip.drops[netsim.DropNoHost] == 0 {
			t.Errorf("%s: the survey exercised nothing: %d hits, drops %v", c.name, len(skip.hits), skip.drops)
		}
		if skip.events >= bytePath.events {
			t.Errorf("%s: %d events with the skip, %d on the byte path", c.name, skip.events, bytePath.events)
		}
	}
}
