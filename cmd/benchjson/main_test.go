package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: ntcsim
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkServeSteadyState/balancer=join-shortest-queue         	      68	  16728734 ns/op	   4330991 events/s	  102376 B/op	      70 allocs/op
BenchmarkServeSteadyState/balancer=random-8                    	      73	  17468649 ns/op	   4147545 events/s	  116200 B/op	      73 allocs/op
BenchmarkClusterAccess-8                                       	 7472762	       158.0 ns/op	   6329922 accesses/s	       0 B/op	       0 allocs/op
PASS
ok  	ntcsim	4.771s
`

func TestParseBenchOutput(t *testing.T) {
	f, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != schemaID {
		t.Fatalf("schema = %q", f.Schema)
	}
	if f.CPU != "Intel(R) Xeon(R) Processor @ 2.70GHz" {
		t.Fatalf("cpu = %q", f.CPU)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(f.Benchmarks))
	}
	// The -8 GOMAXPROCS suffix must be stripped; a /balancer=... sub-
	// benchmark name must survive intact.
	b, ok := f.Benchmarks["BenchmarkClusterAccess"]
	if !ok {
		t.Fatal("BenchmarkClusterAccess missing (suffix not stripped?)")
	}
	if b.NsPerOp != 158.0 || b.AllocsPerOp != 0 || b.Iterations != 7472762 {
		t.Fatalf("ClusterAccess parsed wrong: %+v", b)
	}
	if got := b.Metrics["accesses/s"]; got != 6329922 {
		t.Fatalf("accesses/s = %v", got)
	}
	jsq, ok := f.Benchmarks["BenchmarkServeSteadyState/balancer=join-shortest-queue"]
	if !ok {
		t.Fatal("JSQ sub-benchmark missing")
	}
	if jsq.BPerOp != 102376 || jsq.Metrics["events/s"] != 4330991 {
		t.Fatalf("JSQ parsed wrong: %+v", jsq)
	}
}

// multiPkgBench is `go test -bench` output over several packages: each
// package prints its own header block.
const multiPkgBench = sampleBench + `goos: linux
goarch: amd64
pkg: ntcsim/internal/rng
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkGeometric/stream-2   	29011238	        41.11 ns/op	       0 B/op	       0 allocs/op
BenchmarkGeometric/table-2    	156406310	         7.671 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	ntcsim/internal/rng	3.120s
goos: linux
goarch: amd64
pkg: ntcsim/internal/workload
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkGeneratorNext/profile=vm-low-mem-2         	13254900	        94.53 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	ntcsim/internal/workload	2.013s
`

func TestParseSeveralPackages(t *testing.T) {
	f, err := parse(strings.NewReader(multiPkgBench))
	if err != nil {
		t.Fatal(err)
	}
	for name, pkg := range map[string]string{
		"BenchmarkClusterAccess":                    "ntcsim",
		"BenchmarkGeometric/table":                  "ntcsim/internal/rng",
		"BenchmarkGeneratorNext/profile=vm-low-mem": "ntcsim/internal/workload",
	} {
		b, ok := f.Benchmarks[name]
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if b.Pkg != pkg {
			t.Fatalf("%s: pkg %q, want %q", name, b.Pkg, pkg)
		}
	}
	if got := f.Benchmarks["BenchmarkGeometric/table"].NsPerOp; got != 7.671 {
		t.Fatalf("BenchmarkGeometric/table ns/op = %v", got)
	}
	if len(f.Benchmarks) != 6 {
		t.Fatalf("parsed %d benchmarks, want 6", len(f.Benchmarks))
	}
}

func TestParseRejectsNameInTwoPackages(t *testing.T) {
	clash := strings.ReplaceAll(multiPkgBench, "BenchmarkGeometric/table-2", "BenchmarkClusterAccess-2")
	if _, err := parse(strings.NewReader(clash)); err == nil {
		t.Fatal("want error for a benchmark name reported by two packages")
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok ntcsim 1.0s\n")); err == nil {
		t.Fatal("want error for input with no benchmark lines")
	}
}

func TestParseBenchLineNonBench(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  	ntcsim	4.771s",
		"--- FAIL: TestSomething",
		"Benchmark", // name only, no fields
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine(%q) accepted a non-benchmark line", line)
		}
	}
}

// TestRunEndToEnd exercises the CLI surface: file input, -out, -baseline
// embedding with speedups, and the self-validation round trip.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}

	// First generation: no baseline.
	gen1 := filepath.Join(dir, "gen1.json")
	var sb strings.Builder
	if err := run([]string{"-out", gen1, in}, nil, &sb); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(gen1)
	if err != nil {
		t.Fatal(err)
	}
	var f1 File
	if err := json.Unmarshal(raw, &f1); err != nil {
		t.Fatalf("gen1 does not parse: %v", err)
	}
	if f1.Baseline != nil || len(f1.Speedup) != 0 {
		t.Fatal("gen1 must not carry a baseline")
	}

	// Second generation: twice as fast, compared against gen1.
	faster := strings.ReplaceAll(sampleBench, "158.0 ns/op", "79.0 ns/op")
	if err := os.WriteFile(in, []byte(faster), 0o644); err != nil {
		t.Fatal(err)
	}
	gen2 := filepath.Join(dir, "gen2.json")
	if err := run([]string{"-out", gen2, "-baseline", gen1, in}, nil, &sb); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(gen2)
	if err != nil {
		t.Fatal(err)
	}
	var f2 File
	if err := json.Unmarshal(raw, &f2); err != nil {
		t.Fatalf("gen2 does not parse: %v", err)
	}
	if f2.Baseline == nil || f2.Baseline.Schema != schemaID {
		t.Fatal("gen2 missing embedded baseline")
	}
	if got := f2.Speedup["BenchmarkClusterAccess"]; got != 2.0 {
		t.Fatalf("ClusterAccess speedup = %v, want 2.0", got)
	}
}

func TestRunRejectsBadBaseline(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"something-else"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-baseline", bad, in}, nil, &sb); err == nil {
		t.Fatal("want error for wrong-schema baseline")
	}
}
