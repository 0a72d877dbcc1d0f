package rng_test

import (
	"testing"

	"ntcsim/internal/rng"
	"ntcsim/internal/workload"
)

// byNameProfiles returns every profile workload.ByName resolves.
func byNameProfiles() []*workload.Profile {
	ps := append(workload.All(), workload.Extended()...)
	return append(ps, workload.Bubble())
}

// TestGeometricTableProfiles checks the dependency-distance table of every
// profile's DepGeomP against Stream.Geometric: every 53-bit draw within
// 4096 of every threshold, plus 10M random draws in all.
func TestGeometricTableProfiles(t *testing.T) {
	seen := map[float64]bool{}
	var ps []float64
	for _, p := range byNameProfiles() {
		if !seen[p.DepGeomP] {
			seen[p.DepGeomP] = true
			ps = append(ps, p.DepGeomP)
		}
	}
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	for _, p := range ps {
		rng.CheckGeometricExact(t, p, 4096, draws/len(ps))
	}
}
