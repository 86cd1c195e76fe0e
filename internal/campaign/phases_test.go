package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/scanner"
	"repro/internal/world"
)

// digest is the SHA-256 of v's JSON encoding.
func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestPhaseListsArePinned runs custom phase lists, two of them holding
// both probing phases, under loss, churn and the chaos fault schedule
// at K=1 and K=3, and pins each list's Report and merged hits. Both
// probing phases plan on one scanner and the first Schedule arms every
// plan, so this is the case a change to how plans are armed can break
// without moving the single-phase pins.
func TestPhaseListsArePinned(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 7, ASes: 40})
	for _, tc := range []struct {
		phases       []string
		report, hits string
	}{
		{
			phases: []string{PhaseReachability, PhaseInboundSAV, PhaseCharacterization},
			report: "5651d3dd3b2ad5ea8e4d27fb52d4bf990602f0b8401b59c4a20f7488481a9cde",
			hits:   "f0e55c78616e34e0e2b318ad4969b571fd1dddbcfb75be51a8a43ab0deaeea13",
		},
		{
			phases: []string{PhaseInboundSAV, PhaseReachability},
			report: "c81673424f050557cd3f631c36b65eaf9ce92e0595b7290601247950b401d7eb",
			hits:   "9bcd3e58d6b0be06c9fb57fbda852b35e37eebe5b554c420ec926e8a53bb4756",
		},
		{
			phases: []string{PhaseInboundSAV, PhaseCharacterization},
			report: "b16a7e1f95c75de88678800a4e4f9b4110c88b7cbe0816eeb61211d9ffb62a1b",
			hits:   "c0890e56e1dd5935fedf69518bc14446e69a3788a4baebf1369d0822138009fd",
		},
	} {
		name := strings.Join(tc.phases, "+")
		c, err := NewFromPhases(tc.phases)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3} {
			res, err := Run(pop, Config{
				Campaign:      c,
				Scanner:       scanner.Config{Seed: 8, Rate: 10000},
				World:         world.Options{Seed: 8, LossRate: 0.01},
				Chaos:         chaos.Default(3),
				ChurnFraction: 0.1,
				Shards:        k,
			})
			if err != nil {
				t.Fatalf("%s, K=%d: %v", name, k, err)
			}
			if len(res.Scanner.Hits) == 0 {
				t.Fatalf("%s, K=%d: no hits; the pin would hold an empty run", name, k)
			}
			if got := digest(t, res.Report); got != tc.report {
				t.Errorf("%s, K=%d: Report digest %s, want %s", name, k, got, tc.report)
			}
			if got := digest(t, res.Scanner.Hits); got != tc.hits {
				t.Errorf("%s, K=%d: merged-hit digest %s, want %s", name, k, got, tc.hits)
			}
		}
	}
}
