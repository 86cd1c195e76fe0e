package doors_test

// Golden-report regression test: the full serialized Report from a
// small seeded survey is diffed against a checked-in fixture, so ANY
// behavioural drift — a changed counter, a reordered table row, a new
// field defaulting wrong — fails loudly instead of slipping past the
// spot checks in ExampleRunSurvey. Each case pins one campaign and
// engine: the default survey on the retained engine, and the
// inbound-SAV scan on the fold engine (spilled runs, streamed merge).
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
	"testing"

	doors "repro"
	"repro/internal/campaign"
	"repro/internal/ditl"
	"repro/internal/scanner"
)

func TestGoldenReport(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		cfg        doors.SurveyConfig
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.path, tc.cfg)
		})
	}
}

func checkGolden(t *testing.T, path string, cfg doors.SurveyConfig) {
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
		return
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
