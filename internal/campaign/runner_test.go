package campaign

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/ditl"
)

// TestRunRejectsBadConfig pins config validation: values that would
// otherwise be silently reinterpreted fail the run with an error naming
// the field.
func TestRunRejectsBadConfig(t *testing.T) {
	pop := ditl.Generate(ditl.Params{Seed: 1, ASes: 4})
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Shards", func(c *Config) { c.Shards = -2 }},
		{"MaxParallel", func(c *Config) { c.MaxParallel = -1 }},
		{"ChurnFraction", func(c *Config) { c.ChurnFraction = -0.1 }},
		{"ChurnFraction", func(c *Config) { c.ChurnFraction = 1.5 }},
		{"ChurnFraction", func(c *Config) { c.ChurnFraction = math.NaN() }},
		{"World.LossRate", func(c *Config) { c.World.LossRate = -0.01 }},
		{"World.LossRate", func(c *Config) { c.World.LossRate = 2 }},
		{"LifetimeThreshold", func(c *Config) { c.LifetimeThreshold = -time.Second }},
		{"World.NoDSAV", func(c *Config) { c.World.AllDSAV, c.World.NoDSAV = true, true }},
		{"Scanner.Rate", func(c *Config) { c.Scanner.Rate = -5 }},
		{"Scanner.Rate", func(c *Config) { c.Scanner.Rate = math.NaN() }},
		{"Scanner.Rate", func(c *Config) { c.Scanner.Rate = math.Inf(1) }},
		{"Scanner.MaxOtherPrefix", func(c *Config) { c.Scanner.MaxOtherPrefix = -5 }},
		{"Scanner.FollowUpCount", func(c *Config) { c.Scanner.FollowUpCount = -3 }},
		{"Scanner.FollowUpSpacing", func(c *Config) { c.Scanner.FollowUpSpacing = -time.Second }},
		{"Chaos.FlapRate", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.FlapRate = 1.5 }},
		{"Chaos.DupProb", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.DupProb = -0.1 }},
		{"Chaos.ReorderProb", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.ReorderProb = 2 }},
		{"Chaos.CorruptProb", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.CorruptProb = math.NaN() }},
		{"Chaos.CrashRate", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.CrashRate = math.NaN() }},
		{"Chaos.FlapCount", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.FlapCount = -1 }},
		{"Chaos.FlapDuration", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.FlapDuration = -time.Second }},
		{"Chaos.DupDelay", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.DupDelay = -time.Millisecond }},
		{"Chaos.ReorderMax", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.ReorderMax = -time.Millisecond }},
		{"Chaos.OutageDuration", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.OutageDuration = -time.Second }},
		{"Chaos.SkewMax", func(c *Config) { c.Chaos = chaos.Default(1); c.Chaos.SkewMax = -time.Millisecond }},
	} {
		cfg := tinyConfig()
		tc.set(&cfg)
		res, err := Run(pop, cfg)
		if err == nil || res != nil {
			t.Fatalf("%s: bad value accepted", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field+" = ") {
			t.Fatalf("%s: error does not name the field: %v", tc.field, err)
		}
	}
	// The boundary values stay legal: the default chaos schedule, the
	// zero (default) probe rate, and a disabled chaos config whose
	// unread fields hold garbage.
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"boundaries", func(c *Config) { c.Shards, c.ChurnFraction, c.World.LossRate = -1, 1, 0 }},
		{"chaos.Default", func(c *Config) { c.Chaos = chaos.Default(1) }},
		{"Rate 0", func(c *Config) { c.Scanner.Rate = 0 }},
		{"disabled chaos", func(c *Config) {
			c.Chaos = chaos.Config{CrashRate: math.NaN(), FlapCount: -1, OutageDuration: -time.Second}
		}},
	} {
		cfg := tinyConfig()
		tc.set(&cfg)
		if _, err := Run(pop, cfg); err != nil {
			t.Fatalf("%s: legal config rejected: %v", tc.name, err)
		}
	}
}

// TestFoldSpillDirLifecycle checks that a Fold run removes every spill
// and pre-merge file it wrote, and that an unusable temp directory is an
// error, not a panic.
func TestFoldSpillDirLifecycle(t *testing.T) {
	pop := ditl.NewView(ditl.Params{Seed: 7, ASes: 16})
	cfg := tinyConfig()
	cfg.Fold, cfg.Shards = true, 8

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	old := mergeFanIn
	mergeFanIn = 2 // three pre-merge levels of intermediate files
	defer func() { mergeFanIn = old }()
	if _, err := Run(pop, cfg); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("fold run left %d entries in TMPDIR, first %q", len(left), left[0].Name())
	}

	file := filepath.Join(tmp, "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", file)
	res, err := Run(pop, cfg)
	var pe *os.PathError
	if res != nil || !errors.As(err, &pe) || !strings.HasPrefix(pe.Path, file+string(filepath.Separator)) {
		t.Fatalf("fold run with TMPDIR a regular file: result %v, error %v; want the MkdirTemp error", res, err)
	}
}
