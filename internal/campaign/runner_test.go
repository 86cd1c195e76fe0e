package campaign

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	} {
		cfg := tinyConfig()
		tc.set(&cfg)
		res, err := Run(nil, pop, cfg)
		if err == nil || res != nil {
			t.Fatalf("%s: bad value accepted", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field+" = ") {
			t.Fatalf("%s: error does not name the field: %v", tc.field, err)
		}
	}
	// The boundary values stay legal.
	cfg := tinyConfig()
	cfg.Shards, cfg.ChurnFraction, cfg.World.LossRate = -1, 1, 0
	if _, err := Run(nil, pop, cfg); err != nil {
		t.Fatalf("boundary config rejected: %v", err)
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
	if _, err := Run(nil, pop, cfg); err != nil {
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
	res, err := Run(nil, pop, cfg)
	var pe *os.PathError
	if res != nil || !errors.As(err, &pe) || !strings.HasPrefix(pe.Path, file+string(filepath.Separator)) {
		t.Fatalf("fold run with TMPDIR a regular file: result %v, error %v; want the MkdirTemp error", res, err)
	}
}
