package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	doors "repro"
	"repro/internal/authserver"
	"repro/internal/detrand"
	"repro/internal/dnswire"
	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/runs"
	"repro/internal/scanner"
)

// probeASes sizes the small survey whose targets, hits and zones feed
// the layer probes, so the probes see inputs shaped like the workload's.
const probeASes = 40

// probeBatch is the time one timed batch of a probe aims to take;
// probeBatches batches are timed and the median reported.
const (
	probeBatch   = 20 * time.Millisecond
	probeBatches = 5
)

// probe is one timed loop over a layer's public function. run performs
// at least n operations and returns how many it performed.
type probe struct {
	name string
	run  func(n int) int
}

// probeResult is a probe's median time and allocation count per
// operation.
type probeResult struct {
	name   string
	ns     float64
	allocs float64
}

// probeInputs is the material the probes loop over, taken from a small
// survey of the workload's own configuration.
type probeInputs struct {
	names     []dnswire.Name
	referrals []dnswire.Name
	payloads  [][]byte
	datagrams [][]byte
	hits      []scanner.Hit
	targets   []scanner.Target
	reg       *routing.Registry
	zone      *authserver.Zone
	seed      uint64
}

// newProbeInputs runs the workload's campaign at probeASes on the
// retained engine, which keeps the world and result buffers the probes
// read.
func newProbeInputs(wl workload, seed int64) (*probeInputs, error) {
	cfg := wl.config(seed, probeASes)
	cfg.Stream, cfg.Fold, cfg.Shards = false, false, 1
	s, err := doors.RunSurveyOn(population(cfg), cfg)
	if err != nil {
		return nil, err
	}
	if len(s.Scanner.Hits) == 0 {
		return nil, fmt.Errorf("probe survey observed no hits")
	}
	in := &probeInputs{
		hits:    s.Scanner.Hits,
		targets: s.Scanner.Targets,
		reg:     s.World.Reg,
		zone:    s.World.MainZone,
		seed:    uint64(s.Scanner.Cfg.Seed),
	}
	kw := s.Scanner.Cfg.Keyword
	for i, h := range in.hits {
		name := scanner.EncodeQName(h.TS, h.Src, h.Dst, h.ASN, kw, h.Kind)
		payload, err := dnswire.NewQuery(uint16(i), name, dnswire.TypeA).Pack()
		if err != nil {
			return nil, err
		}
		raw, err := packet.BuildUDP(h.Src, h.Dst, uint16(1024+i), 53, 64, payload)
		if err != nil {
			return nil, err
		}
		in.names = append(in.names, name)
		in.referrals = append(in.referrals, scanner.EncodeQName(h.TS, h.Src, h.Dst, h.ASN, kw, scanner.ProbeV4))
		in.payloads = append(in.payloads, payload)
		in.datagrams = append(in.datagrams, raw)
	}
	return in, nil
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// probes lists the layer probes over in. dir holds the run-file probe's
// scratch files.
func (in *probeInputs) probes(dir string) []probe {
	n := len(in.hits)
	q := eventq.New()
	noop := func(time.Duration) {}
	for i := 0; i < 1024; i++ {
		q.At(time.Duration(i)*time.Millisecond, noop)
	}
	queries := make([]*dnswire.Message, 0, 2*n)
	for i := range in.names {
		queries = append(queries,
			dnswire.NewQuery(uint16(i), in.names[i], dnswire.TypeA),
			dnswire.NewQuery(uint16(i), in.referrals[i], dnswire.TypeA))
	}
	const mergeRuns = 64
	sorted := make([][]scanner.Hit, mergeRuns)
	for i, h := range in.hits {
		sorted[i%mergeRuns] = append(sorted[i%mergeRuns], h)
	}
	for _, r := range sorted {
		scanner.SortHits(r)
	}
	merged := make([]scanner.Hit, 0, n)
	runPath := filepath.Join(dir, "probe.run")

	return []probe{
		{"packet_build", func(ops int) int {
			for i := 0; i < ops; i++ {
				k := i % n
				h := &in.hits[k]
				sink, _ = packet.BuildUDP(h.Src, h.Dst, uint16(1024+k), 53, 64, in.payloads[k])
			}
			return ops
		}},
		{"packet_decode", func(ops int) int {
			for i := 0; i < ops; i++ {
				sink, _ = packet.Decode(in.datagrams[i%n])
			}
			return ops
		}},
		{"dnswire_pack", func(ops int) int {
			for i := 0; i < ops; i++ {
				sink, _ = dnswire.NewQuery(uint16(i), in.names[i%n], dnswire.TypeA).Pack()
			}
			return ops
		}},
		{"dnswire_unpack", func(ops int) int {
			for i := 0; i < ops; i++ {
				sink, _ = dnswire.Unpack(in.payloads[i%n])
			}
			return ops
		}},
		{"trie_lookup", func(ops int) int {
			for i := 0; i < ops; i++ {
				sink = in.reg.OriginOf(in.targets[i%len(in.targets)].Addr)
			}
			return ops
		}},
		{"eventq_cycle", func(ops int) int {
			for i := 0; i < ops; i++ {
				q.At(q.Now()+time.Second+time.Duration(i%1024)*time.Microsecond, noop)
				q.Step()
			}
			return ops
		}},
		{"zone_respond", func(ops int) int {
			for i := 0; i < ops; i++ {
				sink = in.zone.Respond(queries[i%len(queries)], true)
			}
			return ops
		}},
		{"detrand_rand", func(ops int) int {
			var x uint64
			for i := 0; i < ops; i++ {
				hi, lo := detrand.AddrWords(in.targets[i%len(in.targets)].Addr)
				x ^= detrand.Rand(in.seed, hi, lo, 102).Uint64()
			}
			sink = x
			return ops
		}},
		// The run-file and merge probes count one operation per hit:
		// each round trip or merge covers the whole sample.
		{"hitrun_codec", func(ops int) int {
			done := 0
			for ; done < ops; done += n {
				if err := roundTrip(runPath, in.hits); err != nil {
					panic(err)
				}
			}
			return done
		}},
		{"runs_merge", func(ops int) int {
			done := 0
			for ; done < ops; done += n {
				merged = runs.MergeSlices(merged[:0], scanner.LessHit, sorted...)
			}
			sink = merged
			return done
		}},
	}
}

// roundTrip writes hits as a run file and reads them back.
func roundTrip(path string, hits []scanner.Hit) error {
	if err := scanner.WriteHitRun(path, hits); err != nil {
		return err
	}
	rd, err := scanner.OpenHitRun(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	n := 0
	for _, ok := rd.Next(); ok; _, ok = rd.Next() {
		n++
	}
	if err := rd.Err(); err != nil {
		return err
	}
	if n != len(hits) {
		return fmt.Errorf("run file round trip read %d of %d hits", n, len(hits))
	}
	return os.Remove(path)
}

// runProbe calibrates an operation count that fills probeBatch, then
// times probeBatches batches and reports the median time and the mean
// allocation count per operation.
func runProbe(p probe) probeResult {
	ac := newAllocCounter()
	ops := 1
	for {
		t0 := time.Now()
		done := p.run(ops)
		if el := time.Since(t0); el >= probeBatch/4 || ops >= 1<<30 {
			ops = max(1, int(float64(done)*float64(probeBatch)/float64(max(el, time.Microsecond))))
			break
		}
		ops = 4 * done
	}
	nsPerOp := make([]float64, probeBatches)
	total := 0
	_, objs0 := ac.read()
	for b := range nsPerOp {
		t0 := time.Now()
		done := p.run(ops)
		nsPerOp[b] = float64(time.Since(t0).Nanoseconds()) / float64(done)
		total += done
	}
	_, objs1 := ac.read()
	return probeResult{
		name:   p.name,
		ns:     median(nsPerOp),
		allocs: float64(objs1-objs0) / float64(total),
	}
}
