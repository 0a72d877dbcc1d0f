// Command ntcbench is ntcsim's end-to-end benchmark. It runs one named
// workload against the public API the way users and the ntcsimd daemon
// call it, checks every output for correctness, and prints the metrics
// as one JSON line:
//
//	bash ntcbench/run.sh --workload scaleout-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics (host time,
// throughput, latency, memory); with --trace 1 it carries the per-layer
// ledger instead (CPU profile by package, spans around the public calls,
// the metrics registry, the daemon's /metrics). See README.md for why each
// workload exists and which metric each layer should move.
//
// Every timed repetition runs in a fresh child process (this binary with
// the "child" argument), so no repetition can reuse in-process state —
// such as a future result memo — left behind by an earlier one.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ntcsim/internal/experiments"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

// metricDef is one catalogue entry: a metric name and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed for every
// workload. BENCHMARK.json lists the same names (checked by a test).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"throughput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"held_heap_mb", "MB"},
}

// selfShareLayers are the module packages (plus the runtime, the rest of
// the standard library and the harness itself) whose CPU self time the
// traced run reports as "<layer>.self_share".
var selfShareLayers = []string{
	"rng", "workload", "cpu", "cache", "dram", "uncore", "sim", "sampling",
	"core", "experiments", "parallel", "obs", "platform", "power", "tech",
	"qos", "stats", "service", "serve", "governor", "thermal", "sram", "faultfs",
	"runtime", "stdlib", "bench", otherLayer,
}

// otherLayer collects the CPU share of any layer not listed above (a
// package added after the list was written), so the shares still sum to 1.
const otherLayer = "other"

// perLayer are the metrics of a traced run, printed for every workload;
// a layer a workload never reaches reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range selfShareLayers {
		defs = append(defs, metricDef{l + ".self_share", "ratio"})
	}
	defs = append(defs,
		metricDef{"trace.overhead_s", "s"},
		metricDef{"trace.wall_s", "s"},
		metricDef{"sim.warm_s", "s"},
		metricDef{"sim.checkpoint_s", "s"},
		metricDef{"sim.restore_s", "s"},
		metricDef{"sim.settle_s", "s"},
		metricDef{"sampling.fastforward_s", "s"},
		metricDef{"sampling.warmup_s", "s"},
		metricDef{"sampling.measure_s", "s"},
		metricDef{"workload.next_ns", "ns"},
	)
	for _, p := range profileNames {
		defs = append(defs, metricDef{"workload.next_ns." + p, "ns"})
	}
	defs = append(defs,
		metricDef{"sim.access_ns", "ns"},
		metricDef{"parallel.sweep.queue_wait_s", "s"},
		metricDef{"parallel.sweep.busy_s", "s"},
		metricDef{"sim.instructions", "count"},
		metricDef{"sim.cycles", "count"},
		metricDef{"sim.windows", "count"},
		metricDef{"cache.l1d.miss_ratio", "ratio"},
		metricDef{"cache.llc.miss_ratio", "ratio"},
		metricDef{"dram.reads", "count"},
		metricDef{"dram.row_hit_ratio", "ratio"},
		metricDef{"cpu.stall.mem", "count"},
		metricDef{"sim.host_ns_per_instr", "ns"},
		metricDef{"service.submit_ms", "ms"},
		metricDef{"service.queue_wait_ms", "ms"},
		metricDef{"service.run_ms", "ms"},
		metricDef{"service.result_ms", "ms"},
		metricDef{"service.cache_hit_ratio", "ratio"},
		metricDef{"service.dup_computes", "count"},
		metricDef{"service.fail_ratio", "ratio"},
		metricDef{"service.cancelled", "count"},
		metricDef{"serve.arrivals", "count"},
		metricDef{"serve.served", "count"},
		metricDef{"serve.dropped", "count"},
		metricDef{"serve.events_per_s", "1/s"},
		metricDef{"parallel.serve.busy_s", "s"},
		metricDef{"latency.tail_pct", "pct"},
		metricDef{"latency.tail_ms", "ms"},
		metricDef{"latency.samples", "count"},
	)
	return defs
}()

// profileNames are the workload profiles whose generator cost the traced
// sweep runs time one by one.
var profileNames = []string{
	"data-serving", "web-search", "web-serving", "media-streaming",
	"vm-low-mem", "vm-high-mem", "bubble",
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childReport is what one child process measured, sent to the parent as
// the last line of the child's standard output.
type childReport struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	Units      float64            `json:"units"`
	OpsMs      []float64          `json:"ops_ms"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	HeldHeapMB float64            `json:"held_heap_mb"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Digest     string             `json:"digest"`
	Problems   []string           `json:"problems"`
	Layers     map[string]float64 `json:"layers"`
	Counts     map[string]uint64  `json:"counts"` // exact simulated counts of a traced child
	Profile    string             `json:"profile"`
}

const (
	// runBudget caps one invocation well inside the 180 s limit: no new
	// child starts once the next one could end past it.
	runBudget = 140 * time.Second
	// childTimeout kills a hung child.
	childTimeout = 170 * time.Second
	// setupSamples is how many set-up times a run takes its median over
	// when set-up is cheap: set-up-only children make up the count. A
	// cheap set-up is mostly process start, whose time scatters by about
	// 20% between samples on a shared 2-vCPU host; the median of 25 such
	// samples costs well under a second.
	setupSamples = 25
	// cheapSetup is the set-up time below which those extra set-up-only
	// children are affordable; costlier set-ups are sampled once per
	// timed child. It sits far from every workload's set-up time (a few
	// ms without a sweep, over 0.4 s with one), so host noise never flips
	// whether a run adds set-up-only children.
	cheapSetup = 100 * time.Millisecond
)

// options are the parsed command-line flags shared by parent and child.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root (goldens live under it)
	build    string // scratch directory for binaries, profiles, checkpoints
}

func parseSeed(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("--seed %q: %v", s, err)
	}
	return v, nil
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("ntcbench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seedStr := fs.String("seed", strconv.FormatUint(experiments.DefaultSeed, 10), "workload seed (decimal or 0x hex); the goldens are at the default")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	root := fs.String("root", ".", "ntcsim checkout root")
	build := fs.String("build", ".bench_build", "directory for build and run artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seed, err := parseSeed(*seedStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcbench:", err)
		return 2
	}
	if _, ok := workloads[*workloadName]; !ok {
		fmt.Fprintf(os.Stderr, "ntcbench: unknown --workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "ntcbench: --trace must be 0 or 1")
		return 2
	}
	if err := checkNames(catalogueNames()); err != nil {
		fmt.Fprintln(os.Stderr, "ntcbench:", err)
		return 2
	}
	o := options{workload: *workloadName, seed: seed, seconds: *seconds, trace: *traceFlag == 1}
	if o.root, err = filepath.Abs(*root); err == nil {
		o.build, err = filepath.Abs(*build)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcbench:", err)
		return 2
	}
	runDir, err := os.MkdirTemp(o.build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcbench:", err)
		return 2
	}
	defer os.RemoveAll(runDir)

	ctx := context.Background()
	var res result
	if o.trace {
		res, err = tracedRun(ctx, o, runDir)
	} else {
		res, err = untracedRun(ctx, o, runDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcbench:", err)
		return 1
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// catalogue is every metric the benchmark can print, end-to-end first.
func catalogue() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// catalogueNames lists every metric name the benchmark can print.
func catalogueNames() []string {
	var names []string
	for _, d := range catalogue() {
		names = append(names, d.name)
	}
	return names
}

// printResult writes one human-readable line per metric, then the result
// object as the last line.
func printResult(w io.Writer, res result) {
	for _, d := range catalogue() {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-32s %16.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic("ntcbench: encoding the result: " + err.Error()) // plain floats and ints only
	}
	fmt.Fprintf(w, "%s\n", line)
}

// spawn runs one child process and returns its report.
func spawn(ctx context.Context, o options, runDir string, n int, mode childMode) (childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, err
	}
	dir := filepath.Join(runDir, fmt.Sprintf("c%02d", n))
	if mode == modePrepare {
		dir = filepath.Join(runDir, "prepare")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return childReport{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{"child",
		"-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-root", o.root,
		"-dir", dir,
		"-shared", filepath.Join(runDir, "shared"),
		"-mode", string(mode),
	}
	cmd := exec.CommandContext(ctx, exe, append(args, "-t0", strconv.FormatInt(now().UnixNano(), 10))...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return childReport{}, fmt.Errorf("child %d (%s): %w", n, o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return childReport{}, fmt.Errorf("child %d (%s): bad report: %v", n, o.workload, err)
	}
	return rep, nil
}

// prepareShared runs the workload's shared set-up in a process of its own
// when the workload has one (see preparer), and returns its time in
// seconds, or 0.
func prepareShared(ctx context.Context, o options, runDir string) (float64, error) {
	if _, ok := workloads[o.workload](&child{}).(preparer); !ok {
		return 0, nil
	}
	rep, err := spawn(ctx, o, runDir, 0, modePrepare)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "ntcbench: %s shared set-up %.4fs\n", o.workload, rep.SetupS)
	return rep.SetupS, nil
}

// untracedRun measures the end-to-end metrics: fresh-process repetitions
// of the workload until --seconds is spent (at least one), medians over
// them, and set-up repeated until there are setupSamples of it. setup_s
// is the shared set-up's time, if any, plus the median per-child set-up. The
// latency percentiles are each child's own, medianed over the children,
// so one slow child cannot take over the tail.
func untracedRun(ctx context.Context, o options, runDir string) (result, error) {
	start := now()
	shared, err := prepareShared(ctx, o, runDir)
	if err != nil {
		return result{}, err
	}
	childStart := now()
	var reps []childReport
	for {
		rep, err := spawn(ctx, o, runDir, len(reps), modeTimed)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, rep)
		fmt.Fprintf(os.Stderr, "ntcbench: %s child %d: setup %.4fs wall %.4fs units %g op p50 %.4fms\n", o.workload, len(reps)-1, rep.SetupS, rep.WallS, rep.Units, quantile(rep.OpsMs, 0.5))
		elapsed := since(start)
		next := since(childStart) / time.Duration(len(reps))
		if elapsed+next > time.Duration(o.seconds*float64(time.Second)) || elapsed+next > runBudget {
			break
		}
	}
	setups := make([]float64, 0, setupSamples)
	for _, r := range reps {
		setups = append(setups, r.SetupS)
	}
	for len(setups) < setupSamples && median(setups) < cheapSetup.Seconds() {
		rep, err := spawn(ctx, o, runDir, len(reps)+len(setups), modeSetup)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, rep.SetupS)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var walls, rates, rss, heap, p50s, p90s, ops []float64
	for _, r := range reps {
		walls = append(walls, r.WallS)
		rates = append(rates, r.Units/r.WallS)
		rss = append(rss, r.PeakRSSMB)
		heap = append(heap, r.HeldHeapMB)
		if len(r.OpsMs) > 0 {
			p50s = append(p50s, quantile(r.OpsMs, 0.5))
			p90s = append(p90s, quantile(r.OpsMs, 0.9))
		}
		ops = append(ops, r.OpsMs...)
	}
	judge(&res, o, reps)
	if len(ops) == 0 {
		fmt.Fprintf(os.Stderr, "ntcbench: %s: no operation completed\n", o.workload)
		res.Failed++
		res.Correct = false
	}
	values := map[string]float64{
		"setup_s":          shared + median(setups),
		"wall_s":           median(walls),
		"throughput_per_s": median(rates),
		"op_p50_ms":        median(p50s),
		"op_p90_ms":        median(p90s),
		"peak_rss_mb":      median(rss),
		"held_heap_mb":     median(heap),
	}
	for _, d := range endToEnd {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only when nothing completed, which already failed the run
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	if pct, v, n, ok := tail(ops, tailLadder); ok {
		fmt.Fprintf(os.Stderr, "ntcbench: %s: op latency p%g = %.3f ms over %d operations\n", o.workload, 100*pct, v, n)
	} else {
		fmt.Fprintf(os.Stderr, "ntcbench: %s: %d operations are too few for a tail percentile\n", o.workload, n)
	}
	return res, nil
}

// tracedRun measures the per-layer ledger: one untraced repetition as the
// overhead baseline and byte reference, then one traced repetition (CPU
// profile, metrics registry, spans from the harness around the public
// calls, and the workload's replay/micro measurements).
func tracedRun(ctx context.Context, o options, runDir string) (result, error) {
	if _, err := prepareShared(ctx, o, runDir); err != nil {
		return result{}, err
	}
	base, err := spawn(ctx, o, runDir, 0, modeTimed)
	if err != nil {
		return result{}, err
	}
	tr, err := spawn(ctx, o, runDir, 1, modeTraced)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	judge(&res, o, []childReport{base, tr})
	if tr.Counts != nil {
		checkCounts(&res, o, tr.Counts)
	}

	layers := map[string]float64{}
	for _, d := range perLayer {
		layers[d.name] = 0
	}
	for k, v := range tr.Layers {
		layers[k] = v
	}
	shares, err := profileLayers(ctx, tr.Profile)
	if err != nil {
		return result{}, err
	}
	for l, s := range shares {
		if _, ok := layers[l+".self_share"]; !ok {
			fmt.Fprintf(os.Stderr, "ntcbench: profile layer %q is not in the catalogue; its %.4f of CPU counts as %s\n", l, s, otherLayer)
			l = otherLayer
		}
		layers[l+".self_share"] += s
	}
	layers["trace.wall_s"] = tr.WallS
	layers["trace.overhead_s"] = tr.WallS - base.WallS
	if n := layers["sim.instructions"]; n > 0 {
		layers["sim.host_ns_per_instr"] = base.WallS * 1e9 / n
	}
	pct, v, n, ok := tail(tr.OpsMs, tailLadder)
	if ok {
		layers["latency.tail_pct"], layers["latency.tail_ms"] = 100*pct, v
	}
	layers["latency.samples"] = float64(n)
	for _, d := range perLayer {
		v := layers[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("per-layer metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return res, nil
}

// judge folds the children's correctness into res: every child's own
// checks, agreement of the output digests between children, and agreement
// with the digest an earlier run at the same seed recorded. Each
// disagreement counts as one failed operation.
func judge(res *result, o options, reps []childReport) {
	for i, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, p := range r.Problems {
			fmt.Fprintf(os.Stderr, "ntcbench: %s child %d: %s\n", o.workload, i, p)
		}
		if r.Digest != reps[0].Digest {
			fmt.Fprintf(os.Stderr, "ntcbench: %s child %d: output digest %s differs from child 0's %s\n", o.workload, i, r.Digest, reps[0].Digest)
			res.Failed++
		}
	}
	if prev, err := checkRecorded(o, "", reps[0].Digest); err != nil {
		fmt.Fprintln(os.Stderr, "ntcbench:", err)
		res.Failed++
	} else if prev != reps[0].Digest {
		fmt.Fprintf(os.Stderr, "ntcbench: %s seed %d: output digest %s differs from the %s an earlier run recorded\n", o.workload, o.seed, reps[0].Digest, prev)
		res.Failed++
	}
	res.Correct = res.Failed == 0
}

// checkCounts compares a traced child's exact simulated counts with the
// ones the first traced run of this workload and seed recorded, recording
// them when there are none yet. The reports print rounded ratios, so this
// is what catches a change that moves a count slightly. The comparison is
// one operation, failed when any counter differs, appears or disappears.
func checkCounts(res *result, o options, counts map[string]uint64) {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	var rec strings.Builder
	for _, n := range names {
		fmt.Fprintf(&rec, "%s %d\n", n, counts[n])
	}
	res.Attempted++
	prev, err := checkRecorded(o, ".counts", rec.String())
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "ntcbench:", err)
		res.Failed++
	case prev != rec.String():
		before := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(prev), "\n") {
			if n, v, ok := strings.Cut(line, " "); ok {
				before[n] = v
			}
		}
		for _, n := range names {
			if v := strconv.FormatUint(counts[n], 10); before[n] != v {
				fmt.Fprintf(os.Stderr, "ntcbench: %s seed %d: simulated count %s = %s, an earlier traced run recorded %q\n", o.workload, o.seed, n, v, before[n])
			}
			delete(before, n)
		}
		for n, v := range before {
			fmt.Fprintf(os.Stderr, "ntcbench: %s seed %d: simulated count %s is gone; an earlier traced run recorded %s\n", o.workload, o.seed, n, v)
		}
		res.Failed++
	}
	res.Correct = res.Failed == 0
}

// checkRecorded returns the record stored under refs/<workload>-<seed>
// plus suffix in the build directory by the first run of this workload
// and seed, after storing rec there when there is none yet (in which
// case it returns rec).
func checkRecorded(o options, suffix, rec string) (string, error) {
	dir := filepath.Join(o.build, "refs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d%s", o.workload, o.seed, suffix))
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		tmp := path + ".tmp" + strconv.Itoa(os.Getpid())
		if err := os.WriteFile(tmp, []byte(rec), 0o644); err != nil {
			return "", err
		}
		return rec, os.Rename(tmp, path)
	case err != nil:
		return "", err
	}
	return string(prev), nil
}

// nproc is the host's CPU count: the sweep worker budget and the bound on
// daemon workers x jobs and on client connections.
func nproc() int { return runtime.NumCPU() }
