package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Per-package self time from a CPU profile. The profile is decoded by the
// toolchain's own `go tool pprof -raw`, whose text form lists every sample
// as a count, a CPU-nanosecond value and a leaf-first list of location
// ids, then every location as its (inline-expanded, innermost-first)
// function names.

// profileLayers runs `go tool pprof -raw` on a CPU profile and returns
// each layer's share of the sampled CPU time (see aggregateRaw).
func profileLayers(ctx context.Context, profile string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-raw", profile)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -raw %s: %v: %s", profile, err, strings.TrimSpace(errb.String()))
	}
	shares, _, err := aggregateRaw(&out)
	return shares, err
}

var (
	sampleRE   = regexp.MustCompile(`^\s*(\d+)\s+(\d+):\s*([\d ]*)$`)
	locationRE = regexp.MustCompile(`^\s*(\d+): 0x[0-9a-f]+ (?:M=\d+ )?(\S+)`)
	inlineRE   = regexp.MustCompile(`^\s+(\S+) \S+:\d+`)
)

// aggregateRaw reads `pprof -raw` text and charges each sample's CPU
// time to one layer:
//
//   - the innermost frame inside this module names the layer
//     ("ntcsim/internal/workload.(*Generator).Next" -> "workload",
//     "ntcsim/internal/obs/timeseries.X" -> "obs", the harness's own
//     package main -> "bench"), so standard-library leaf time such as
//     math.Log or mallocgc is charged to the module package that called it;
//   - a stack with no module frame is "runtime" when every frame is the
//     Go runtime (GC workers, the scheduler) and "stdlib" otherwise
//     (for example net/http connection handling).
//
// It returns each layer's share of the total and the total in CPU
// nanoseconds.
func aggregateRaw(r io.Reader) (map[string]float64, float64, error) {
	type sample struct {
		ns   float64
		locs []int
	}
	var samples []sample
	locs := map[int][]string{} // location id -> functions, innermost first
	section, cur := "", -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section, cur = strings.TrimSpace(line), -1
			continue
		}
		switch section {
		case "Samples:":
			m := sampleRE.FindStringSubmatch(line)
			if m == nil {
				continue // the column header
			}
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("pprof -raw sample %q: %v", line, err)
			}
			var ids []int
			for _, f := range strings.Fields(m[3]) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, 0, fmt.Errorf("pprof -raw sample %q: %v", line, err)
				}
				ids = append(ids, id)
			}
			samples = append(samples, sample{ns, ids})
		case "Locations":
			if m := locationRE.FindStringSubmatch(line); m != nil {
				cur, _ = strconv.Atoi(m[1])
				locs[cur] = []string{m[2]}
			} else if m := inlineRE.FindStringSubmatch(line); m != nil && cur >= 0 {
				locs[cur] = append(locs[cur], m[1])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("reading pprof -raw output: %v", err)
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range samples {
		var funcs []string
		for _, id := range s.locs {
			funcs = append(funcs, locs[id]...)
		}
		byLayer[stackLayer(funcs)] += s.ns
		total += s.ns
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("CPU profile holds no samples")
	}
	shares := make(map[string]float64, len(byLayer))
	for l, ns := range byLayer {
		shares[l] = ns / total
	}
	return shares, total, nil
}

// stackLayer names the layer a leaf-first stack of function names is
// charged to (see aggregateRaw).
func stackLayer(funcs []string) string {
	allRuntime := true
	for _, fn := range funcs {
		pkg := funcPackage(fn)
		switch {
		case pkg == "main":
			return "bench"
		case strings.HasPrefix(pkg, "ntcsim/internal/"):
			l := strings.TrimPrefix(pkg, "ntcsim/internal/")
			if i := strings.IndexByte(l, '/'); i >= 0 {
				l = l[:i]
			}
			return l
		}
		if pkg != "runtime" && !strings.HasPrefix(pkg, "runtime/") && !strings.HasPrefix(pkg, "internal/runtime/") {
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "stdlib"
}

// funcPackage returns the import path of a symbolized Go function name:
// "net/http.(*conn).serve" -> "net/http", "main.main" -> "main".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
