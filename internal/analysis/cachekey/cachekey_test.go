package cachekey

import (
	"testing"

	"hclocksync/internal/analysis/analysistest"
)

func TestCachekey(t *testing.T) {
	// The fixture is type-checked under its own path, so its local Task,
	// CacheKey, and runPhases stand in for the harness and experiments
	// packages.
	defer func(h, p string) { harnessPkg, phasesPkg = h, p }(harnessPkg, phasesPkg)
	harnessPkg, phasesPkg = "a", "a"
	analysistest.Run(t, Analyzer, "a")
}
