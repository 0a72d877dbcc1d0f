// Command benchjson turns `go test -bench` text output into the
// machine-readable benchmark baseline the perf trajectory is tracked
// with (BENCH_<pr>.json at the repo root).
//
// Usage:
//
//	go test -run xxx -bench . -benchmem . ./internal/rng > bench.out
//	benchjson -out BENCH_12.json [-baseline BENCH_9.json] bench.out
//
// With no file argument the benchmark output is read from stdin. Every
// benchmark line is parsed into iterations, ns/op, B/op, allocs/op and
// any custom b.ReportMetric metrics (events/s, accesses/s, ...). The
// output may span several packages: each benchmark records the package
// its "pkg:" header named, and a name reported by two packages is an
// error rather than a silent overwrite. With
// -baseline, a prior BENCH_*.json is embedded verbatim under "baseline"
// and per-benchmark speedups (baseline ns/op over current ns/op) are
// computed for every benchmark present in both, so a PR can demonstrate
// its claimed improvement in one self-contained artifact.
//
// The tool fails (non-zero exit) if no benchmark lines parse, and it
// round-trip validates the JSON it wrote — the CI short-mode step relies
// on both properties.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result.
type Bench struct {
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_*.json schema.
type File struct {
	Schema     string             `json:"schema"`
	GoVersion  string             `json:"go"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks map[string]Bench   `json:"benchmarks"`
	Baseline   *File              `json:"baseline,omitempty"`
	Speedup    map[string]float64 `json:"speedup_vs_baseline,omitempty"`
}

const schemaID = "ntcsim-bench/v1"

// parseBenchLine parses one benchmark result line; ok is false for
// non-benchmark lines (headers, PASS, ok, ...).
func parseBenchLine(line string) (name string, b Bench, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Bench{}, false
	}
	// Strip the -GOMAXPROCS suffix so names are stable across hosts.
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Bench{}, false
	}
	b = Bench{Iterations: iters}
	// The remainder is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Bench{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return name, b, true
}

// parse consumes go test -bench output and returns the structured file.
func parse(r io.Reader) (*File, error) {
	f := &File{
		Schema:     schemaID,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: map[string]Bench{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if cpu, found := strings.CutPrefix(line, "cpu: "); found {
			f.CPU = strings.TrimSpace(cpu)
			continue
		}
		if p, found := strings.CutPrefix(line, "pkg: "); found {
			pkg = strings.TrimSpace(p)
			continue
		}
		if name, b, ok := parseBenchLine(line); ok {
			// A repeat within one package (-count N) keeps the last run.
			if old, dup := f.Benchmarks[name]; dup && old.Pkg != pkg {
				return nil, fmt.Errorf("benchjson: %s is reported by both %s and %s", name, old.Pkg, pkg)
			}
			b.Pkg = pkg
			f.Benchmarks[name] = b
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchjson: read: %w", err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines found in input")
	}
	return f, nil
}

// attachBaseline embeds prior results and computes per-benchmark
// speedups for names present in both files.
func attachBaseline(f *File, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("benchjson: baseline: %w", err)
	}
	var base File
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchjson: baseline %s: %w", baselinePath, err)
	}
	if base.Schema != schemaID {
		return fmt.Errorf("benchjson: baseline %s: schema %q, want %q", baselinePath, base.Schema, schemaID)
	}
	// Do not nest baselines of baselines; one generation back suffices
	// for the trajectory (older points live in their own BENCH_*.json).
	base.Baseline = nil
	base.Speedup = nil
	f.Baseline = &base
	f.Speedup = map[string]float64{}
	for name, b := range f.Benchmarks {
		if old, ok := base.Benchmarks[name]; ok && b.NsPerOp > 0 && old.NsPerOp > 0 {
			f.Speedup[name] = old.NsPerOp / b.NsPerOp
		}
	}
	return nil
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "", "output path (default stdout)")
	baseline := fs.String("baseline", "", "prior BENCH_*.json to embed and compare against")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := stdin
	if fs.NArg() > 0 {
		fh, err := os.Open(fs.Arg(0))
		if err != nil {
			return fmt.Errorf("benchjson: %w", err)
		}
		defer fh.Close()
		in = fh
	}
	f, err := parse(in)
	if err != nil {
		return err
	}
	if *baseline != "" {
		if err := attachBaseline(f, *baseline); err != nil {
			return err
		}
	}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchjson: marshal: %w", err)
	}
	buf = append(buf, '\n')
	// Round-trip validation: what we emit must parse back into the same
	// schema. This is the "JSON parses" guarantee the CI step leans on.
	var check File
	if err := json.Unmarshal(buf, &check); err != nil {
		return fmt.Errorf("benchjson: self-validation: %w", err)
	}
	if check.Schema != schemaID || len(check.Benchmarks) != len(f.Benchmarks) {
		return fmt.Errorf("benchjson: self-validation: round-trip mismatch")
	}
	if *out == "" {
		_, err = stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	fmt.Fprintf(stdout, "benchjson: wrote %d benchmarks to %s\n", len(f.Benchmarks), *out)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
