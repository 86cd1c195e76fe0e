package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
)

func TestDetrandOnly(t *testing.T) {
	analysistest.Run(t, "testdata/detrandonly", lint.DetrandOnly, "a")
}

func TestSaltBands(t *testing.T) {
	analysistest.Run(t, "testdata/saltbands", lint.SaltBands, "b", "collide/p1", "collide/p2")
}

func TestSortedEmit(t *testing.T) {
	analysistest.Run(t, "testdata/sortedemit", lint.SortedEmit, "report", "other")
}

func TestWallClock(t *testing.T) {
	analysistest.Run(t, "testdata/wallclock", lint.WallClock, "w", "clean")
}

func TestFrozenShare(t *testing.T) {
	// p2 imports p1: the p2 findings only exist if p1's FrozenType and
	// MutatingMethod facts reached p2's pass.
	analysistest.RunWith(t, "testdata/frozenshare",
		[]*analysis.Analyzer{lint.FrozenShare}, "p1", "p2")
}

func TestHotAlloc(t *testing.T) {
	// ha2 imports ha1: its verdicts and witness chains only exist if
	// ha1's AllocFacts crossed the package boundary. internal/eventq
	// exercises the auto-mark table (path-suffix match, no marker).
	analysistest.RunWith(t, "testdata/hotalloc",
		[]*analysis.Analyzer{lint.HotAlloc}, "ha1", "ha2", "internal/eventq")
}

func TestRetain(t *testing.T) {
	// rt2 imports rt1: cross-package RetainsFact flow, both positive
	// verdicts (with witnesses) and empty ones (proven clean).
	analysistest.RunWith(t, "testdata/retain",
		[]*analysis.Analyzer{lint.Retain}, "rt1", "rt2")
}

func TestGoLifetime(t *testing.T) {
	analysistest.Run(t, "testdata/golifetime", lint.GoLifetime, "gl1")
}

func TestShardCapture(t *testing.T) {
	// FrozenShare must run first: shardcapture's frozen-capture
	// exemption consumes its FrozenType facts.
	analysistest.RunWith(t, "testdata/shardcapture",
		[]*analysis.Analyzer{lint.FrozenShare, lint.ShardCapture}, "sc")
}
