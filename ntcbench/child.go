package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"ntcsim/internal/experiments"
	"ntcsim/internal/obs"
)

// runner is one workload inside a child process.
type runner interface {
	// setup prepares everything the timed part needs; its time counts
	// in setup_s.
	setup(ctx context.Context) error
	// timed does the measured work once.
	timed(ctx context.Context) (outcome, error)
	// trace adds the workload's own per-layer measurements after a traced
	// timed part (replays, micro-timings, registry and /metrics reads).
	trace(ctx context.Context, layers map[string]float64) error
	// exactCounts reports whether every registry counter a traced timed
	// part leaves is a simulated statistic that must repeat exactly at
	// the same seed.
	exactCounts() bool
	// close releases what setup acquired.
	close()
}

// preparer is a runner whose set-up has a part that is the same for every
// child of a run: the daemon-mix reference digests. The parent has one
// process of its own do that part once (prepare writes it to c.shared),
// and every child's setup reads it from there, so the children spend
// their time in the timed part. Its time counts in setup_s.
type preparer interface {
	prepare(ctx context.Context) error
}

// childMode is what one child process does.
type childMode string

const (
	modeTimed   childMode = "timed"   // set-up, then the timed part
	modeTraced  childMode = "traced"  // the same, with the per-layer ledger
	modeSetup   childMode = "setup"   // set-up only, to time it
	modePrepare childMode = "prepare" // the run's shared set-up (preparer)
)

// outcome is what one timed part did.
type outcome struct {
	units     float64   // work units completed (points, jobs, DES events)
	opsMs     []float64 // latency of each public call or job
	attempted int       // operations attempted
	failed    int       // operations failed, refused or with wrong output
	digest    []byte    // every output the workload produced, in a fixed order
	problems  []string  // what failed, for the log
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// child is the per-process context every runner sees.
type child struct {
	seed   uint64
	root   string
	dir    string
	shared string // file of the run's shared set-up (see preparer)
	traced bool
	// reg is the metrics registry handed to the program through its
	// existing observability seams; nil when untraced, so the timed
	// path is the uninstrumented one.
	reg *obs.Registry
}

// goldenParams are the sweep parameters the golden report files pin.
func (c *child) params() experiments.Params {
	return experiments.Params{Seed: c.seed, WarmInstr: 200_000, SettleCycles: 10_000}
}

// defaultSeed reports whether the run uses the seed the goldens were
// generated at.
func (c *child) defaultSeed() bool {
	return c.params().Normalized().Seed == experiments.DefaultSeed
}

// golden reads a golden report file of cmd/ntcsim.
func (c *child) golden(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(c.root, "cmd", "ntcsim", "testdata", "golden", name+".golden"))
}

// workloads maps each workload name to its runner constructor.
var workloads = map[string]func(c *child) runner{
	"scaleout-cold": newScaleoutCold,
	"vm-warm":       newVMWarm,
	"daemon-mix":    newDaemonMix,
	"serve-day":     newServeDay,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("ntcbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seedStr := fs.String("seed", "", "workload seed")
	root := fs.String("root", ".", "checkout root")
	dir := fs.String("dir", "", "scratch directory of this child")
	shared := fs.String("shared", "", "file of the run's shared set-up")
	mode := fs.String("mode", string(modeTimed), "timed, traced, setup or prepare")
	t0 := fs.Int64("t0", 0, "UnixNano at which the parent started this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seed, err := parseSeed(*seedStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcbench child:", err)
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *dir == "" || *t0 == 0 {
		fmt.Fprintln(os.Stderr, "ntcbench child: need -workload, -dir and -t0")
		return 2
	}
	c := &child{seed: seed, root: *root, dir: *dir, shared: *shared, traced: childMode(*mode) == modeTraced}
	if c.traced {
		c.reg = obs.NewRegistry()
	}
	rep, err := runChild(context.Background(), c, mk(c), time.Unix(0, *t0), childMode(*mode))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntcbench child %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcbench child:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// profileHz is the traced run's CPU sampling rate.
const profileHz = 500

// runChild does what mode says: the shared set-up, or set-up followed by
// the timed part and, when traced, the workload's extra measurements. It
// reports what it measured.
func runChild(ctx context.Context, c *child, r runner, t0 time.Time, mode childMode) (childReport, error) {
	defer r.close()
	var rep childReport
	switch mode {
	case modePrepare:
		p, ok := r.(preparer)
		if !ok {
			return childReport{}, fmt.Errorf("the workload has no shared set-up")
		}
		if err := p.prepare(ctx); err != nil {
			return childReport{}, fmt.Errorf("shared set-up: %w", err)
		}
		rep.SetupS = since(t0).Seconds()
		return rep, nil
	case modeTimed, modeTraced, modeSetup:
	default:
		return childReport{}, fmt.Errorf("unknown mode %q", mode)
	}
	if err := r.setup(ctx); err != nil {
		return childReport{}, fmt.Errorf("set-up: %w", err)
	}
	if mode == modeSetup {
		rep.SetupS = since(t0).Seconds()
		return rep, nil
	}
	var prof *os.File
	if c.traced {
		var err error
		rep.Profile = filepath.Join(c.dir, "cpu.pprof")
		if prof, err = os.Create(rep.Profile); err != nil {
			return childReport{}, err
		}
		defer prof.Close()
		// 500 Hz instead of pprof's 100 Hz: the DES and daemon timed parts
		// last about a second, too few samples at the default rate.
		// (StartCPUProfile logs that the rate is already set; it keeps it.)
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return childReport{}, err
		}
	}
	start := now()
	rep.SetupS = start.Sub(t0).Seconds()
	out, err := r.timed(ctx)
	rep.WallS = since(start).Seconds()
	if c.traced {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return childReport{}, fmt.Errorf("timed part: %w", err)
	}
	if c.traced && r.exactCounts() {
		rep.Counts = c.reg.Snapshot().Counters
	}
	// Only the digest of the outputs is kept, so held_heap_mb measures
	// the program's live heap, not the harness's copy of its outputs.
	sum := sha256.Sum256(out.digest)
	out.digest = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeldHeapMB = float64(ms.HeapAlloc) / (1 << 20)

	if c.traced {
		rep.Layers = map[string]float64{}
		if err := r.trace(ctx, rep.Layers); err != nil {
			out.fail("traced measurements: %v", err)
		}
		registryLayers(c.reg, rep.Layers)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return childReport{}, err
	}
	rep.Units, rep.OpsMs, rep.PeakRSSMB = out.units, out.opsMs, rss
	rep.Attempted, rep.Failed, rep.Problems = out.attempted, out.failed, out.problems
	rep.Digest = hex.EncodeToString(sum[:])
	if rep.Attempted < 1 {
		return childReport{}, fmt.Errorf("timed part attempted nothing")
	}
	return rep, nil
}

// registryLayers copies the simulated statistics and the worker-pool
// timings from the program's own metrics registry.
func registryLayers(reg *obs.Registry, layers map[string]float64) {
	snap := reg.Snapshot()
	ctr := func(n string) float64 { return float64(snap.Counters[n]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for _, n := range []string{"sim.instructions", "sim.cycles", "sim.windows", "dram.reads", "cpu.stall.mem"} {
		layers[n] = ctr(n)
	}
	layers["cache.l1d.miss_ratio"] = ratio(ctr("cache.l1d.misses"), ctr("cache.l1d.accesses"))
	layers["cache.llc.miss_ratio"] = ratio(ctr("cache.llc.misses"), ctr("cache.llc.accesses"))
	layers["dram.row_hit_ratio"] = ratio(ctr("dram.row_hits"),
		ctr("dram.row_hits")+ctr("dram.row_conflicts")+ctr("dram.row_closed"))
	for name, t := range snap.Timings {
		secs := float64(t.TotalNs) / 1e9
		for _, scope := range []string{"sweep", "serve"} {
			switch {
			case name == "parallel."+scope+".queue_wait":
				layers["parallel."+scope+".queue_wait_s"] += secs
			case strings.HasPrefix(name, "parallel."+scope+".worker") && strings.HasSuffix(name, ".busy"):
				layers["parallel."+scope+".busy_s"] += secs
			}
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %v", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
