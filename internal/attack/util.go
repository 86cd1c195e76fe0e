package attack

import (
	mrand "math/rand"

	"repro/internal/detrand"
)

// newRand builds a seeded RNG for allocator construction in tests.
func newRand(seed int64) *mrand.Rand { return detrand.Rand(uint64(seed), saltAllocStartup) }
