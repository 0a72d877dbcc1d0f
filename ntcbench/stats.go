package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// nameRE is the metric-name grammar of BENCHMARK.json: a letter or digit
// first, then at most 63 more letters, digits, '_', '.' or '-'.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric name.
func validName(name string) bool { return nameRE.MatchString(name) }

// checkNames rejects an illegal or repeated metric name, so a typo in the
// catalogue fails the run before anything is measured.
func checkNames(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !validName(n) {
			return fmt.Errorf("invalid metric name %q (want [A-Za-z0-9][A-Za-z0-9_.-]{0,63})", n)
		}
		if seen[n] {
			return fmt.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the definition numpy and R call type 7). xs is not
// modified; an empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: fewer than that and the "tail" is one or two
// outliers, not a property of the system.
const minBeyond = 10

// tailLadder is the percentiles considered for a tail report, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// tail picks the highest percentile in ladder (ordered highest first)
// that has at least minBeyond samples beyond it, and returns that
// percentile, its value and the sample count. ok is false when no rung
// qualifies — fewer than 2*minBeyond samples — in which case pct and
// value are zero.
func tail(xs []float64, ladder []float64) (pct, value float64, n int, ok bool) {
	n = len(xs)
	for _, q := range ladder {
		// Samples strictly above the q-quantile's rank; the epsilon keeps
		// a product like 0.9*100 from rounding up to the next rank.
		beyond := n - int(math.Ceil(q*float64(n)-1e-9))
		if beyond >= minBeyond {
			return q, quantile(xs, q), n, true
		}
	}
	return 0, 0, n, false
}
