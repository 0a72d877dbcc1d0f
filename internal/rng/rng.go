// Package rng provides deterministic pseudo-random number generation for
// the simulator.
//
// Simulation results must be exactly reproducible across runs, Go versions,
// and platforms, so the simulator does not use math/rand (whose algorithms
// may change between releases). The generator here is SplitMix64, a small,
// fast, well-tested 64-bit generator with a 2^64 period, which is more than
// sufficient for the sample sizes used by SMARTS-style sampled simulation.
//
// Each simulated component (core trace, branch outcomes, memory addresses,
// VM statistics, ...) derives its own independent stream with Derive, so
// adding draws to one component never perturbs another.
package rng

import "math"

// Stream is a deterministic SplitMix64 random stream.
// The zero value is a valid stream seeded with 0.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Derive returns a new independent stream derived from s's seed and a label.
// The label is hashed (FNV-1a) so that distinct component names yield
// decorrelated streams. Derive does not consume state from s.
func (s *Stream) Derive(label string) *Stream {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	// Mix the parent seed in and run one scramble round so that even
	// similar labels produce unrelated streams.
	d := &Stream{state: s.state ^ h}
	d.Uint64()
	return d
}

// Split returns substream i of s. The substream's seed is a pure function
// of s's seed and the index — independent of how many substreams are taken,
// in what order, or from which goroutine — which is what lets a parallel
// sweep hand substream i to the worker evaluating point i and still produce
// bit-identical results at any worker count. The index is passed through a
// SplitMix64-style finalizer before mixing so that adjacent indices yield
// decorrelated streams. Split does not consume state from s.
func (s *Stream) Split(i uint64) *Stream {
	z := i + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	d := &Stream{state: s.state ^ z}
	d.Uint64()
	return d
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	if n&(n-1) == 0 {
		// Power of two: the rejection limit below is 0, so the first draw
		// is always accepted, and v % n == v & (n-1).
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling to avoid modulo bias.
	limit := -n % n // == (2^64 - n) % n, the count of biased high values
	for {
		v := s.Uint64()
		if v >= limit {
			return v % n
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uint53 returns the next 53-bit draw: the integer m behind
// Float64() == m / 2^53.
func (s *Stream) Uint53() uint64 { return s.Uint64() >> 11 }

// Cut returns the threshold for comparing a 53-bit draw against p without
// converting it to float: s.Float64() < p exactly when s.Uint53() < Cut(p).
// For p in (0, 1), p*2^53 is exact (a power-of-two scaling), and for an
// integer m, m/2^53 < p iff m < p*2^53 iff m < ceil(p*2^53).
func Cut(p float64) uint64 {
	switch {
	case !(p > 0): // also NaN, against which every comparison is false
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// NormFloat64 returns a standard normal deviate (Box-Muller; one value per
// call, the pair's second value is discarded for simplicity).
func (s *Stream) NormFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			v := s.Float64()
			return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
		}
	}
}

// LogNormal returns a lognormal deviate with the given parameters of the
// underlying normal (mu, sigma).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Geometric returns a geometric deviate in {1, 2, ...} with success
// probability p in (0, 1]: the number of trials up to and including the
// first success. Used for register dependency distances.
func (s *Stream) Geometric(p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		panic("rng: Geometric with p <= 0")
	}
	return geometricAt(s.Uint53(), p)
}

// geometricAt is Geometric's inverse CDF at the 53-bit draw m, that is at
// u = Float64() = m / 2^53. GeometricTable's thresholds are searched on
// it, so the table and Geometric share one formula.
func geometricAt(m uint64, p float64) int {
	u := float64(m) / (1 << 53)
	// Inverse CDF; u in [0,1) keeps the argument to Log positive.
	k := int(math.Floor(math.Log(1-u)/math.Log(1-p))) + 1
	if k < 1 {
		k = 1
	}
	return k
}

// Exponential returns an exponential deviate with the given mean.
func (s *Stream) Exponential(mean float64) float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -mean * math.Log(u)
		}
	}
}

// Beta returns a Beta(a, b) deviate using Johnk's algorithm for small
// parameters and gamma ratios otherwise. Used for per-branch taken bias.
func (s *Stream) Beta(a, b float64) float64 {
	x := s.gamma(a)
	y := s.gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// gamma returns a Gamma(shape, 1) deviate (Marsaglia-Tsang for shape >= 1,
// boosted for shape < 1).
func (s *Stream) gamma(shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u == 0 {
			continue
		}
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^theta, via inverse-CDF over a precomputed table. Samplers
// with the same (n, theta) share one immutable table.
type Zipf struct {
	t *zipfTable
	s *Stream
}

// NewZipf builds a Zipf sampler over n ranks with exponent theta >= 0
// drawing from stream s. theta == 0 degenerates to uniform.
func NewZipf(s *Stream, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	t := zipfTables.get(zipfKey{n, math.Float64bits(theta)}, func() *zipfTable {
		return newZipfTable(n, theta)
	})
	return &Zipf{t: t, s: s}
}

// Next returns the next rank in [0, n).
func (z *Zipf) Next() int { return z.t.rank(z.s.Float64()) }

// Rank returns the first rank whose cumulative probability is >= u, for u
// in [0, 1): the inverse CDF that Next applies to a uniform draw.
func (z *Zipf) Rank(u float64) int { return z.t.rank(u) }

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.t.cdf) }

// State returns the stream's internal state for checkpointing.
func (s *Stream) State() uint64 { return s.state }

// SetState restores a state captured with State.
func (s *Stream) SetState(v uint64) { s.state = v }

// StreamState returns the sampler's stream state for checkpointing.
func (z *Zipf) StreamState() uint64 { return z.s.state }

// SetStreamState restores a state captured with StreamState.
func (z *Zipf) SetStreamState(v uint64) { z.s.state = v }
