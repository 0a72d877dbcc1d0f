package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

// TestTail pins the reporting rule: the highest percentile with at least
// ten samples beyond it, reported with its sample count.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		wantOK bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.9, true},
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
		{0, 0, false},
	} {
		xs := seq(c.n)
		pct, v, n, ok := tail(xs, tailLadder)
		if ok != c.wantOK || pct != c.pct || n != c.n {
			t.Errorf("n=%d: tail = (p%v, n=%d, ok=%v), want (p%v, n=%d, ok=%v)", c.n, pct, n, ok, c.pct, c.n, c.wantOK)
			continue
		}
		if ok && v != quantile(xs, pct) {
			t.Errorf("n=%d: tail value %v, want quantile %v", c.n, v, quantile(xs, pct))
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, pct, beyond)
			}
		}
	}
}

func TestValidName(t *testing.T) {
	for _, n := range []string{"setup_s", "sim.access_ns", "workload.next_ns.web-search", "0x", strings.Repeat("a", 64)} {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	for _, n := range []string{"", ".x", "_x", "-x", "a b", "a/b", "p99%", "é", strings.Repeat("a", 65)} {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
	if err := checkNames([]string{"a", "b", "a"}); err == nil {
		t.Error("checkNames accepted a repeated name")
	}
	if err := checkNames(catalogueNames()); err != nil {
		t.Errorf("catalogue: %v", err)
	}
}
