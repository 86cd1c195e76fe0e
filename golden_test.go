package doors_test

// Golden-report regression test: the full serialized Report from a
// small seeded survey is diffed against a checked-in fixture, so ANY
// behavioural drift — a changed counter, a reordered table row, a new
// field defaulting wrong — fails loudly instead of slipping past the
// spot checks in ExampleRunSurvey. Each case pins one campaign and
// engine: the default survey on the retained engine, the inbound-SAV
// scan on the fold engine (no merged buffers), and the
// default survey under loss, churn and the chaos fault schedule. The
// faulted case also pins its drops by reason and its invariant totals,
// so a change to the loss or fault draws fails here even when the byte
// path and the skip move together.
//
// To regenerate after an intentional change:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenReport .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	doors "repro"
	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/ditl"
	"repro/internal/netsim"
	"repro/internal/scanner"
	"repro/internal/world"
)

func TestGoldenReport(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		cfg        doors.SurveyConfig
		check      func(t *testing.T, s *doors.Survey)
	}{
		{
			name: "default",
			path: "testdata/golden_report.json",
			cfg: doors.SurveyConfig{
				Population: ditl.Params{Seed: 7, ASes: 40},
				Scanner:    scanner.Config{Seed: 8, Rate: 10000},
			},
		},
		{
			// Raising DeadTargetMean gives the one-probe-per-target
			// scan enough targets to reach some at 40 ASes.
			name: "inbound-sav-fold",
			path: "testdata/golden_report_inbound_sav.json",
			cfg: doors.SurveyConfig{
				Population: ditl.Params{Seed: 7, ASes: 40, DeadTargetMean: 40},
				Campaign:   campaign.NewInboundSAV(),
				Scanner:    scanner.Config{Seed: 8, Rate: 10000},
				Shards:     4,
				Fold:       true,
			},
		},
		{
			name: "chaos-loss",
			path: "testdata/golden_report_chaos.json",
			cfg: doors.SurveyConfig{
				Population:    ditl.Params{Seed: 7, ASes: 40},
				Scanner:       scanner.Config{Seed: 8, Rate: 10000},
				World:         world.Options{Seed: 8, LossRate: 0.01},
				Chaos:         chaos.Default(3),
				ChurnFraction: 0.1,
				Shards:        2,
			},
			check: func(t *testing.T, s *doors.Survey) {
				drops := map[netsim.DropReason]uint64{}
				for _, w := range s.Worlds {
					for r, n := range w.Net.Drops() {
						drops[r] += n
					}
				}
				want := map[netsim.DropReason]uint64{
					netsim.DropBogonSource: 3486, netsim.DropChaos: 3449, netsim.DropDSAV: 25797,
					netsim.DropKernelSpoof: 47, netsim.DropLoss: 559, netsim.DropMalformed: 528,
					netsim.DropNoHost: 18615, netsim.DropNoListener: 143,
				}
				if !reflect.DeepEqual(drops, want) {
					t.Errorf("drops by reason %v, want %v", drops, want)
				}
				inv := s.Invariants
				if inv == nil || inv.DeliveriesChecked != 7107 || inv.ResponsesChecked != 1998 ||
					inv.CacheFlushes != 17 || !inv.Ok() {
					t.Errorf("invariants %+v, want 7107 deliveries, 1998 responses checked, 17 cache flushes, no violation", inv)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := checkGolden(t, tc.path, tc.cfg)
			if tc.check != nil {
				tc.check(t, s)
			}
		})
	}
}

func checkGolden(t *testing.T, path string, cfg doors.SurveyConfig) *doors.Survey {
	t.Helper()
	survey, err := doors.RunSurvey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if survey.Report.V4.ReachableAddrs+survey.Report.V6.ReachableAddrs == 0 {
		t.Fatal("survey reached no target; the fixture would pin an empty report")
	}
	got, err := json.MarshalIndent(survey.Report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return survey
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create the fixture)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report drifted from %s:\n%s\n\nIf the change is intentional, "+
			"regenerate with UPDATE_GOLDEN=1 go test -run TestGoldenReport .",
			path, firstDiff(got, want))
	}
	return survey
}

// firstDiff renders the first divergent line pair, enough to orient
// without dumping two full reports.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("length differs: got %d lines, want %d", len(gl), len(wl))
}
