package rng

import (
	"math"
	"testing"
)

// refZipfCDF and refZipfRank are the sampler the guide table replaced:
// the same CDF construction, then a binary search for the first entry
// >= u. They stay here as the reference the table must match.
func refZipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func refZipfRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipfProbes returns the draws where a guide-table lookup could go wrong:
// every CDF entry and its neighbouring doubles, every multiple of 2^-16
// and its neighbours (these include every bucket edge of a guide with up
// to 2^16 buckets, the most any shipped table has), and the ends of
// [0, 1).
func zipfProbes(cdf []float64) []float64 {
	probes := []float64{0, math.Nextafter(1, 0)}
	add := func(u float64) {
		for _, v := range []float64{math.Nextafter(u, 0), u, math.Nextafter(u, 1)} {
			if v >= 0 && v < 1 {
				probes = append(probes, v)
			}
		}
	}
	for _, c := range cdf {
		add(c)
	}
	for b := 1; b < 1<<16; b++ {
		add(float64(b) / (1 << 16))
	}
	return probes
}

func checkZipfExact(t *testing.T, n int, theta float64) {
	t.Helper()
	z := NewZipf(New(1), n, theta)
	cdf := refZipfCDF(n, theta)
	for _, u := range zipfProbes(cdf) {
		if got, want := z.Rank(u), refZipfRank(cdf, u); got != want {
			t.Fatalf("Zipf(n=%d, theta=%v) at u=%v: guide table %d, binary search %d", n, theta, u, got, want)
		}
	}
	s, ref := New(7), New(7)
	z = NewZipf(s, n, theta)
	for i := 0; i < 100_000; i++ {
		if got, want := z.Next(), refZipfRank(cdf, ref.Float64()); got != want {
			t.Fatalf("Zipf(n=%d, theta=%v) draw %d: %d, want %d", n, theta, i, got, want)
		}
	}
}

// TestZipfGuideTableDegenerate covers tables where the guide table meets
// its edge cases: one rank, a uniform CDF, and a skew so steep that the
// CDF reaches 1 within a few ranks and leaves a long flat tail of equal
// entries. The shipped (n, theta) pairs are checked in package workload.
func TestZipfGuideTableDegenerate(t *testing.T) {
	for _, c := range []struct {
		n     int
		theta float64
	}{
		{1, 0}, {1, 1.5}, {2, 0}, {1000, 0}, {1 << 16, 0},
		{1000, 60}, {1 << 14, 200}, {3, 1}, {1000, 0.5},
	} {
		checkZipfExact(t, c.n, c.theta)
	}
	if cdf := refZipfCDF(1<<14, 200); cdf[10] != 1 || cdf[len(cdf)-1] != 1 {
		t.Fatal("theta=200 no longer produces a flat tail; pick a steeper skew")
	}
}

func TestQuickZipfGuideTable(t *testing.T) {
	s := New(3)
	for i := 0; i < 30; i++ {
		checkZipfExact(t, 1+s.Intn(5000), 3*s.Float64())
	}
}

// TestGeometricTableExact compares the table with Stream.Geometric at
// every draw within 4096 of every threshold and at random draws, for
// several p. The profiles' own DepGeomP values are checked the same way
// in package workload.
func TestGeometricTableExact(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.3, 0.5, 0.9, 0.9999} {
		checkGeometricExact(t, p, 4096, 1_000_000)
	}
}

// checkGeometricExact checks NewGeometricTable(p) against Stream.Geometric
// at every 53-bit draw within window of each threshold, then over draws
// random draws from paired streams, which must also stay in step.
func checkGeometricExact(t *testing.T, p float64, window uint64, draws int) {
	t.Helper()
	const top = uint64(1) << 53
	tab := NewGeometricTable(p)
	if tab.thr == nil {
		t.Fatalf("p=%v: no table built", p)
	}
	for _, thr := range tab.thr.thr {
		for m := max(thr, window) - window; m < min(thr+window, top); m++ {
			if got, want := tab.thr.deviate(m), min(geometricAt(m, p), GeometricMax+1); got != want {
				t.Fatalf("p=%v at draw %#x: table %d, formula %d", p, m, got, want)
			}
		}
	}
	s, ref := New(uint64(draws)), New(uint64(draws))
	for i := 0; i < draws; i++ {
		if got, want := tab.Next(s), min(ref.Geometric(p), GeometricMax+1); got != want {
			t.Fatalf("p=%v draw %d: table %d, Geometric %d", p, i, got, want)
		}
	}
	if s.State() != ref.State() {
		t.Fatalf("p=%v: table and Geometric consumed different draws", p)
	}
}

// TestGeometricTableEdges covers p where Geometric does not take the
// logarithm path: p >= 1 returns 1 without drawing, p <= 0 panics, and a p
// so small that 1-p rounds to 1.
func TestGeometricTableEdges(t *testing.T) {
	s := New(5)
	if got := NewGeometricTable(1).Next(s); got != 1 || s.State() != 5 {
		t.Fatalf("p=1: got %d, state %d; want 1 with no draw", got, s.State())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("p=0 should panic like Geometric")
			}
		}()
		NewGeometricTable(0).Next(s)
	}()
	tiny := NewGeometricTable(1e-17)
	a, b := New(9), New(9)
	for i := 0; i < 1000; i++ {
		if got, want := tiny.Next(a), min(b.Geometric(1e-17), GeometricMax+1); got != want {
			t.Fatalf("p=1e-17 draw %d: %d, want %d", i, got, want)
		}
	}
}

func TestBetaCuts(t *testing.T) {
	s := New(11)
	tab := NewBetaCuts(s, 500, 0.25, 0.1)
	if s.State() != 11 {
		t.Fatal("NewBetaCuts advanced its stream")
	}
	for i := 0; i < 500; i++ {
		if got, want := tab.At(i), Cut(s.Beta(0.25, 0.1)); got != want {
			t.Fatalf("threshold %d: %v, want %v", i, got, want)
		}
	}
}

// TestCutMatchesFloatCompare checks Uint53() < Cut(p) against
// Float64() < p at every draw within 8 of the cut and at random draws,
// for edge and random p.
func TestCutMatchesFloatCompare(t *testing.T) {
	const top = uint64(1) << 53
	ps := []float64{math.NaN(), math.Inf(-1), -1, 0, 5e-324, 1e-300, 0x1p-53,
		math.Nextafter(0x1p-53, 0), 0x1.8p-53, 0.25, 0.5, 0.6, 0.88,
		math.Nextafter(1, 0), 1, 1.5, math.Inf(1)}
	s := New(13)
	for i := 0; i < 10_000; i++ {
		ps = append(ps, s.Float64(), s.Float64()*1e-12)
	}
	for _, p := range ps {
		c := Cut(p)
		check := func(m uint64) {
			if got, want := m < c, float64(m)/(1<<53) < p; got != want {
				t.Fatalf("p=%v m=%d: m < Cut(p) is %v, Float64 < p is %v", p, m, got, want)
			}
		}
		for m := max(c, 8) - 8; m < min(c+8, top); m++ {
			check(m)
		}
		for i := 0; i < 8; i++ {
			check(s.Uint53())
		}
	}
	a, b := New(17), New(17)
	for i := 0; i < 1000; i++ {
		if got, want := float64(a.Uint53())/(1<<53), b.Float64(); got != want {
			t.Fatalf("draw %d: Uint53 %v, Float64 %v", i, got, want)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		n := uint64(1) << shift
		s, ref := New(uint64(shift)), New(uint64(shift))
		for i := 0; i < 100; i++ {
			if got, want := s.Uint64n(n), ref.Uint64()%n; got != want {
				t.Fatalf("n=2^%d: %d, want %d", shift, got, want)
			}
		}
	}
}

func BenchmarkGeometric(b *testing.B) {
	const p = 0.45 // web-serving's DepGeomP
	b.Run("stream", func(b *testing.B) {
		s := New(1)
		for i := 0; i < b.N; i++ {
			_ = s.Geometric(p)
		}
	})
	b.Run("table", func(b *testing.B) {
		s, tab := New(1), NewGeometricTable(p)
		for i := 0; i < b.N; i++ {
			_ = tab.Next(s)
		}
	})
}
