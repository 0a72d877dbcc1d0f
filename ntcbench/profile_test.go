package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestAggregateRaw charges a fixture profile's samples to layers: module
// frames name the layer (stdlib leaves go to their module caller),
// runtime-only stacks are "runtime", other module-free stacks "stdlib".
func TestAggregateRaw(t *testing.T) {
	f, err := os.Open("testdata/cpu.raw")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, total, err := aggregateRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100e6 {
		t.Errorf("total = %v ns, want 100e6", total)
	}
	want := map[string]float64{
		"rng":     0.3, // math.Log inlined into rng.Geometric, called by workload
		"cache":   0.2,
		"runtime": 0.1, // GC worker
		"stdlib":  0.1, // net/http with no module frame
		"bench":   0.1, // mallocgc called from the harness
		"obs":     0.2, // memmove under obs/timeseries
	}
	if len(shares) != len(want) {
		t.Errorf("layers = %v, want %v", shares, want)
	}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", l, shares[l], w)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"ntcsim/internal/workload.(*Generator).Next":  "ntcsim/internal/workload",
		"ntcsim/internal/obs/timeseries.(*Series).Do": "ntcsim/internal/obs/timeseries",
		"net/http.(*conn).serve":                      "net/http",
		"main.main":                                   "main",
		"runtime.mallocgc":                            "runtime",
		"gopkg.in/yaml%2ev3.(*parser).parse":          "gopkg.in/yaml%2ev3",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAggregateRawEmpty(t *testing.T) {
	if _, _, err := aggregateRaw(strings.NewReader("Samples:\nsamples/count cpu/nanoseconds\nLocations\n")); err == nil {
		t.Error("a profile without samples aggregated without error")
	}
}
