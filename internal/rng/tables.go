package rng

import "math"

// Lookup tables that replace per-draw arithmetic in the workload
// generator's hot path. Each table returns exactly what the formula it
// replaces returns for the same stream draw, so swapping one in moves no
// draw and changes no simulated bit. Tables are shared through a
// weakCache (cache.go).

type zipfKey struct {
	n     int
	theta uint64 // math.Float64bits(theta)
}

var zipfTables weakCache[zipfKey, zipfTable]

// zipfTable is the immutable inverse-CDF table of one (n, theta) with a
// Chen–Asau guide table over it.
//
// guide has G = 2^j buckets; guide[g] is the first rank whose CDF is
// >= g/G. For u in [g/G, (g+1)/G) every rank before guide[g] has
// cdf < g/G <= u, so the first rank with cdf >= u is found by scanning
// forward from guide[g]. With G a power of two, u*G and g/G are exact
// (scaling by a power of two), so int(u*G) is exactly the bucket holding
// u and the scan returns the same rank a binary search over cdf does.
// With G >= n the scan is about two steps on average.
type zipfTable struct {
	cdf    []float64
	guide  []int32
	scaleG float64 // float64(len(guide))
}

func newZipfTable(n int, theta float64) *zipfTable {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	g := 1
	for g < n {
		g <<= 1
	}
	guide := make([]int32, g)
	i := 0
	for b := range guide {
		edge := float64(b) / float64(g)
		for i < n-1 && cdf[i] < edge {
			i++
		}
		guide[b] = int32(i)
	}
	return &zipfTable{cdf: cdf, guide: guide, scaleG: float64(g)}
}

// rank returns the first rank whose cdf is >= u, for u in [0, 1). The
// running sum is at least 1 (the first term is 1/1^theta), so the last
// entry is sum/sum == 1 > u and the scan stops in range; a non-finite
// sum makes the last entry NaN, which stops it too.
func (t *zipfTable) rank(u float64) int {
	i := int(t.guide[int(u*t.scaleG)])
	for t.cdf[i] < u {
		i++
	}
	return i
}

// BetaCuts is an immutable table of Bernoulli thresholds for Beta(a, b)
// success probabilities x_i: s.Uint53() < At(i) exactly when
// s.Bool(x_i) would hold (see Cut). Tables with the same inputs are
// shared.
type BetaCuts struct{ cuts []uint64 }

type betaKey struct {
	state uint64 // the drawing stream's state
	n     int
	a, b  uint64 // math.Float64bits
}

var betaTables weakCache[betaKey, BetaCuts]

// NewBetaCuts returns the thresholds of the n Beta(a, b) deviates that s
// would draw next, in order. s itself is not advanced.
func NewBetaCuts(s *Stream, n int, a, b float64) *BetaCuts {
	k := betaKey{s.state, n, math.Float64bits(a), math.Float64bits(b)}
	return betaTables.get(k, func() *BetaCuts {
		d := *s
		cuts := make([]uint64, n)
		for i := range cuts {
			cuts[i] = Cut(d.Beta(a, b))
		}
		return &BetaCuts{cuts}
	})
}

// At returns threshold i.
func (t *BetaCuts) At(i int) uint64 { return t.cuts[i] }

// GeometricMax is the largest deviate a GeometricTable resolves; larger
// ones are reported as GeometricMax+1.
const GeometricMax = 64

// GeometricTable draws Geometric(p) deviates capped at GeometricMax+1
// without a logarithm per draw. It compares the 53-bit draw behind
// Float64 against per-k thresholds found by binary search on Geometric's own
// inverse CDF, so for every stream state Next returns
// min(s.Geometric(p), GeometricMax+1) and consumes the same single draw.
type GeometricTable struct {
	p float64
	// thr is nil where the exact formula is used instead: for p
	// outside (0, 1), where Geometric draws nothing or panics, and for a
	// p whose inverse CDF does not step cleanly at some threshold.
	thr *geometricThresholds
}

// geometricThresholds holds in thr[k-1] the least 53-bit draw whose
// deviate exceeds k (2^53 if none does), and in start[b] the deviate of
// the least draw whose top 8 bits are b. A draw's deviate is one more
// than the number of thresholds at or below it, so it never decreases as
// the draw grows: a scan for it may begin at its 8-bit bucket's start,
// and most draws then need a single comparison.
type geometricThresholds struct {
	thr   [GeometricMax]uint64
	start [1 << 8]uint8
}

// deviate returns min(k, GeometricMax+1) for the draw m.
func (t *geometricThresholds) deviate(m uint64) int {
	k := int(t.start[m>>45])
	for k <= GeometricMax && m >= t.thr[k-1] {
		k++
	}
	return k
}

var geometricTables weakCache[uint64, geometricThresholds]

// NewGeometricTable returns the table for success probability p. Tables
// are shared among generators with the same p.
func NewGeometricTable(p float64) *GeometricTable {
	t := &GeometricTable{p: p}
	if p > 0 && p < 1 {
		t.thr = geometricTables.get(math.Float64bits(p), func() *geometricThresholds {
			return searchGeometric(p)
		})
		if t.thr.thr[0] == 0 {
			// searchGeometric found no clean step: exact formula.
			t.thr = nil
		}
	}
	return t
}

// Next returns min(s.Geometric(p), GeometricMax+1), drawing exactly as
// s.Geometric(p) does.
func (t *GeometricTable) Next(s *Stream) int {
	if t.thr == nil {
		return min(s.Geometric(t.p), GeometricMax+1)
	}
	return t.thr.deviate(s.Uint53())
}

// searchGeometric binary-searches, for k = 1..GeometricMax, the least
// 53-bit draw m with geometricAt(m, p) > k. The search assumes the inverse
// CDF is non-decreasing in m; a computed logarithm could in principle
// break that by an ulp right at a step, so every draw within a window of
// each threshold is checked against the formula. On any mismatch the
// table is marked unusable (thr[0] == 0: m = 0 always yields 1, so no
// real table has it).
func searchGeometric(p float64) *geometricThresholds {
	const top = uint64(1) << 53
	capped := func(m uint64) int { return min(geometricAt(m, p), GeometricMax+1) }
	t := &geometricThresholds{}
	thr := &t.thr
	lo := uint64(0)
	for k := 1; k <= GeometricMax; k++ {
		hi := top
		for lo < hi {
			mid := lo + (hi-lo)/2
			if geometricAt(mid, p) > k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		thr[k-1] = lo
	}
	for b := range t.start {
		t.start[b] = 1 // scan from 1 while start[b] is computed
		t.start[b] = uint8(t.deviate(uint64(b) << 45))
	}
	const window = 16
	for _, c := range append(thr[:], 0, top) {
		for m := max(c, window) - window; m < min(c+window, top); m++ {
			if t.deviate(m) != capped(m) {
				thr[0] = 0
				return t
			}
		}
	}
	return t
}
