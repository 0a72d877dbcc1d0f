package workload

import (
	"math"
	"testing"

	"ntcsim/internal/rng"
)

// TestZipfTablesShipped checks every Zipf sampler of every ByName profile
// against the sampler its guide table replaced (the CDF rebuilt here, then
// a binary search for the first entry >= u) at each CDF entry, each
// multiple of 2^-16 (every bucket edge of the guide), their neighbouring
// doubles, and the ends of [0, 1).
func TestZipfTablesShipped(t *testing.T) {
	for _, p := range byNameProfiles() {
		g := NewGenerator(p, 0, rng.New(1))
		for _, c := range []struct {
			name  string
			z     *rng.Zipf
			theta float64
		}{
			{"branch-pick", g.branchPick, p.BranchZipf},
			{"cold", g.coldZipf, p.ColdZipf},
			{"hot", g.hotZipf, p.HotZipf},
			{"code-target", g.codeTarget, p.CodeZipfTheta},
		} {
			cdf := make([]float64, c.z.N())
			sum := 0.0
			for i := range cdf {
				sum += 1 / math.Pow(float64(i+1), c.theta)
				cdf[i] = sum
			}
			for i := range cdf {
				cdf[i] /= sum
			}
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				lo, hi := 0, len(cdf)-1
				for lo < hi {
					if mid := (lo + hi) / 2; cdf[mid] < u {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				if got := c.z.Rank(u); got != lo {
					t.Fatalf("%s %s (n=%d, theta=%v) at u=%v: guide table %d, binary search %d",
						p.Name, c.name, len(cdf), c.theta, u, got, lo)
				}
			}
			probe := func(u float64) {
				check(math.Nextafter(u, 0))
				check(u)
				check(math.Nextafter(u, 1))
			}
			for _, v := range cdf {
				probe(v)
			}
			for b := 0; b <= 1<<16; b++ {
				probe(float64(b) / (1 << 16))
			}
		}
	}
}
