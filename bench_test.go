// Benchmark harness: one benchmark per table and figure of the paper.
// Each benchmark regenerates its artifact end-to-end (workload generation,
// sampled full-system simulation, power models) and reports the headline
// numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation. The benchmarks use reduced sweep grids and the
// quick sampling configuration so the whole suite stays in the minutes
// range; `cmd/ntcsim` regenerates the full-resolution artifacts.
package ntcsim_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"ntcsim/internal/core"
	"ntcsim/internal/experiments"
	"ntcsim/internal/governor"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/platform"
	"ntcsim/internal/power"
	"ntcsim/internal/qos"
	"ntcsim/internal/rng"
	"ntcsim/internal/serve"
	"ntcsim/internal/sim"
	"ntcsim/internal/tech"
	"ntcsim/internal/thermal"
	"ntcsim/internal/workload"
)

// benchParams is the reduced-cost parameter set the sweep benchmarks use.
var benchParams = experiments.Params{WarmInstr: 800_000, SettleCycles: 10_000}

// benchExplorer builds a reduced-cost explorer on the given runtime seams.
func benchExplorer(b *testing.B, env experiments.Env) *core.Explorer {
	b.Helper()
	e, err := benchParams.NewExplorer(env)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

var benchFreqs = []float64{0.1e9, 0.3e9, 0.5e9, 1.0e9, 2.0e9}

// BenchmarkFig1TechModel regenerates Figure 1: voltage and chip power vs
// frequency for bulk, FD-SOI and FD-SOI+FBB.
func BenchmarkFig1TechModel(b *testing.B) {
	var curves []core.TechCurve
	for i := 0; i < b.N; i++ {
		curves = core.Fig1Curves(36, core.Fig1Frequencies())
	}
	// Report the FD-SOI power saving over bulk at 2GHz.
	var bulkW, fdsoiW float64
	for _, c := range curves {
		for _, p := range c.Points {
			if p.FreqHz == 2.0e9 && p.Reachable {
				switch c.Label {
				case "bulk":
					bulkW = p.ChipPowerW
				case "fdsoi":
					fdsoiW = p.ChipPowerW
				}
			}
		}
	}
	if fdsoiW > 0 {
		b.ReportMetric(bulkW/fdsoiW, "bulk/fdsoi-power@2GHz")
	}
}

// BenchmarkTable1DRAMEnergy regenerates Table I from the Micron-style
// current parameters.
func BenchmarkTable1DRAMEnergy(b *testing.B) {
	var idle float64
	for i := 0; i < b.N; i++ {
		e := core.TableI()
		idle = e.IdlePerCycleNJ
	}
	b.ReportMetric(idle, "E_IDLE-nJ/cycle")
}

// BenchmarkFig2QoS regenerates one Figure 2 curve (web search): normalized
// 99th-percentile latency vs frequency, reporting the minimum QoS-feasible
// frequency (paper: 200-500MHz).
func BenchmarkFig2QoS(b *testing.B) {
	var minMHz float64
	for i := 0; i < b.N; i++ {
		e := benchExplorer(b, experiments.Env{})
		sw, err := e.Sweep(context.Background(), workload.WebSearch(), benchFreqs)
		if err != nil {
			b.Fatal(err)
		}
		o := sw.Optima()
		if !o.HasFeasible {
			b.Fatal("no QoS-feasible point")
		}
		minMHz = o.MinFeasibleHz / 1e6
	}
	b.ReportMetric(minMHz, "min-feasible-MHz")
}

// BenchmarkFig3ScaleOutEfficiency regenerates one workload of Figure 3:
// cores/SoC/server efficiency vs frequency, reporting where each scope
// peaks (paper: cores at the Vdd floor, SoC ~1GHz, server ~1-1.2GHz).
func BenchmarkFig3ScaleOutEfficiency(b *testing.B) {
	var o core.Optima
	for i := 0; i < b.N; i++ {
		e := benchExplorer(b, experiments.Env{})
		sw, err := e.Sweep(context.Background(), workload.WebSearch(), benchFreqs)
		if err != nil {
			b.Fatal(err)
		}
		o = sw.Optima()
	}
	b.ReportMetric(o.BestCores.FreqHz/1e6, "cores-opt-MHz")
	b.ReportMetric(o.BestSoC.FreqHz/1e6, "soc-opt-MHz")
	b.ReportMetric(o.BestServer.FreqHz/1e6, "server-opt-MHz")
	b.ReportMetric(o.BestServer.EffServer/1e9, "server-GUIPS/W")
}

// BenchmarkFig4VMEfficiency regenerates one workload of Figure 4 (VMs
// high-mem) and reports the degradation-bounded frequencies (paper: 500MHz
// at 4x, 1GHz at 2x).
func BenchmarkFig4VMEfficiency(b *testing.B) {
	var f2x, f4x float64
	for i := 0; i < b.N; i++ {
		e := benchExplorer(b, experiments.Env{})
		sw, err := e.Sweep(context.Background(), workload.VMHighMem(), benchFreqs)
		if err != nil {
			b.Fatal(err)
		}
		f2x, f4x = 0, 0
		for _, pt := range sw.Points {
			d := qos.Degradation(sw.BaselineUIPS, pt.UIPSChip)
			if f4x == 0 && d <= qos.DegradationRelaxed {
				f4x = pt.FreqHz
			}
			if f2x == 0 && d <= qos.DegradationStrict {
				f2x = pt.FreqHz
			}
		}
	}
	b.ReportMetric(f4x/1e6, "4x-bound-MHz")
	b.ReportMetric(f2x/1e6, "2x-bound-MHz")
}

// BenchmarkOptimalPoints reproduces the Sec. V-B conclusion for a VM
// workload: the optimum moves right as scope widens.
func BenchmarkOptimalPoints(b *testing.B) {
	var o core.Optima
	for i := 0; i < b.N; i++ {
		e := benchExplorer(b, experiments.Env{})
		sw, err := e.Sweep(context.Background(), workload.VMLowMem(), benchFreqs)
		if err != nil {
			b.Fatal(err)
		}
		o = sw.Optima()
	}
	b.ReportMetric(o.BestCores.FreqHz/1e6, "cores-opt-MHz")
	b.ReportMetric(o.BestServer.FreqHz/1e6, "server-opt-MHz")
}

// BenchmarkAblationSleepBoost measures the FD-SOI knobs of Sec. II-A:
// state-retentive RBB sleep (~10x leakage) and sub-microsecond FBB boost.
func BenchmarkAblationSleepBoost(b *testing.B) {
	e := benchExplorer(b, experiments.Env{})
	var reduction, speedup float64
	for i := 0; i < b.N; i++ {
		s, err := e.SleepAnalysis(0.5e9)
		if err != nil {
			b.Fatal(err)
		}
		reduction = s.Reduction
		bo, err := e.BoostAnalysis(0.5)
		if err != nil {
			b.Fatal(err)
		}
		speedup = bo.Speedup
	}
	b.ReportMetric(reduction, "sleep-reduction-x")
	b.ReportMetric(speedup, "boost-speedup-x")
}

// BenchmarkAblationLPDDR4 runs the Sec. V-C what-if: server efficiency at
// the near-threshold point with DDR4 vs LPDDR4 memory.
func BenchmarkAblationLPDDR4(b *testing.B) {
	freqs := []float64{0.3e9, 1.0e9}
	var gain float64
	for i := 0; i < b.N; i++ {
		e := benchExplorer(b, experiments.Env{})
		ddr4, err := e.Sweep(context.Background(), workload.MediaStreaming(), freqs)
		if err != nil {
			b.Fatal(err)
		}
		lp, err := (&core.Explorer{Model: e.LPDDR4()}).Sweep(context.Background(), workload.MediaStreaming(), freqs)
		if err != nil {
			b.Fatal(err)
		}
		gain = lp.Points[0].EffServer / ddr4.Points[0].EffServer
	}
	b.ReportMetric(gain, "lpddr4-eff-gain@300MHz")
}

// BenchmarkAblationClusterSize verifies the paper's Sec. II-B claim that
// the cluster core count does not change the trends: per-core UIPC ratio
// between low and high frequency for 4- vs 8-core clusters.
func BenchmarkAblationClusterSize(b *testing.B) {
	freqs := []float64{0.3e9, 2.0e9}
	var ratio4, ratio8 float64
	for i := 0; i < b.N; i++ {
		e4 := benchExplorer(b, experiments.Env{})
		s4, err := e4.Sweep(context.Background(), workload.WebSearch(), freqs)
		if err != nil {
			b.Fatal(err)
		}
		e8 := &core.Explorer{Model: e4.EightCore()}
		s8, err := e8.Sweep(context.Background(), workload.WebSearch(), freqs)
		if err != nil {
			b.Fatal(err)
		}
		ratio4 = (s4.Points[0].UIPSChip / 0.3e9) / (s4.Points[1].UIPSChip / 2.0e9)
		ratio8 = (s8.Points[0].UIPSChip / 0.3e9) / (s8.Points[1].UIPSChip / 2.0e9)
	}
	b.ReportMetric(ratio4, "uipc-ratio-4core")
	b.ReportMetric(ratio8, "uipc-ratio-8core")
}

// BenchmarkAblationVariation measures the NT variation analysis of
// Sec. II-A(4): frequency loss at 0.5V without and with per-core bias
// compensation.
func BenchmarkAblationVariation(b *testing.B) {
	t := tech.FDSOI28()
	var imp tech.VariationImpact
	for i := 0; i < b.N; i++ {
		offsets := tech.DefaultVariation().SampleOffsets(36, rng.New(uint64(i)+1))
		imp = t.AnalyzeVariation(0.5, offsets)
	}
	b.ReportMetric(100*imp.LossUncompensated, "loss-pct@0.5V")
	b.ReportMetric(100*imp.LossCompensated, "residual-pct")
}

// BenchmarkAblationDarkSilicon measures the TDP headroom of Sec. V-B1.
func BenchmarkAblationDarkSilicon(b *testing.B) {
	m := thermal.Default()
	cm := power.NewA57(tech.FDSOI28())
	var ntCores, peakCores int
	for i := 0; i < b.N; i++ {
		pts, err := thermal.DarkSilicon(m, cm, 23, 36, []float64{0.5e9, 3.2e9})
		if err != nil {
			b.Fatal(err)
		}
		ntCores, peakCores = pts[0].ActiveCores, pts[1].ActiveCores
	}
	b.ReportMetric(float64(ntCores), "active-cores@500MHz")
	b.ReportMetric(float64(peakCores), "active-cores@3.2GHz")
}

// BenchmarkGovernorDay replays a diurnal day under the adaptive policy.
func BenchmarkGovernorDay(b *testing.B) {
	spec, err := platform.Default()
	if err != nil {
		b.Fatal(err)
	}
	curve, err := governor.NewPerfCurve([]governor.PerfPoint{
		{FreqHz: 0.2e9, UIPS: 4e9}, {FreqHz: 0.5e9, UIPS: 9e9},
		{FreqHz: 1.0e9, UIPS: 16e9}, {FreqHz: 2.0e9, UIPS: 25e9},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := &governor.Config{
		Platform:       spec,
		Curve:          curve,
		Tail:           qos.NewTailModel(36, 50*time.Millisecond, 25e9),
		QoSLimit:       200 * time.Millisecond,
		UncoreW:        23,
		MemBackgroundW: 15,
		MemDynPerReq:   1e-3,
		Margin:         0.85,
	}
	trace := governor.DiurnalTrace(96, 2200, 0.2, 0.05, 1.4, rng.New(42))
	var saving float64
	for i := 0; i < b.N; i++ {
		rs, err := governor.Compare(cfg, trace, governor.NewMaxFrequency(), governor.NewAdaptive())
		if err != nil {
			b.Fatal(err)
		}
		saving = 100 * (1 - rs[1].EnergyKWh/rs[0].EnergyKWh)
	}
	b.ReportMetric(saving, "adaptive-saving-pct")
}

// BenchmarkAblationInterference quantifies Sec. III-B1 co-scheduling
// interference at 2GHz.
func BenchmarkAblationInterference(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		e := benchExplorer(b, experiments.Env{})
		rep, err := e.Interference(workload.WebSearch(), workload.Bubble(), 2e9)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = rep.Slowdown
	}
	b.ReportMetric(slowdown, "bubble-slowdown-x")
}

// BenchmarkAblationChipScaling validates the 9x-scaling methodology:
// per-cluster UIPC with 1 vs 2 clusters sharing the DRAM channels.
func BenchmarkAblationChipScaling(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		per := func(n int) float64 {
			ch, err := sim.NewChip(sim.DefaultConfig(), workload.WebSearch(), n, 2e9)
			if err != nil {
				b.Fatal(err)
			}
			ch.FastForward(400000)
			ch.Run(10000)
			ms, _ := ch.Measure(30000)
			sum := 0.0
			for _, m := range ms {
				sum += m.UIPC()
			}
			return sum / float64(n)
		}
		drop = 100 * (1 - per(2)/per(1))
	}
	b.ReportMetric(drop, "2cluster-drop-pct")
}

// BenchmarkSweepParallel measures the parallel sweep engine at different
// worker counts over an 8-point grid. Output is bit-identical at every
// worker count (see internal/core/parallel_test.go), so this isolates the
// wall-clock effect: on a multi-core host jobs=4 should finish the grid
// at least ~2x faster than jobs=1; on a single-core host the sub-benchmarks
// converge instead of regressing.
func BenchmarkSweepParallel(b *testing.B) {
	grid := []float64{0.1e9, 0.2e9, 0.3e9, 0.5e9, 0.7e9, 1.0e9, 1.5e9, 2.0e9}
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := benchExplorer(b, experiments.Env{Jobs: jobs})
				sw, err := e.Sweep(context.Background(), workload.WebSearch(), grid)
				if err != nil {
					b.Fatal(err)
				}
				if len(sw.Points) != len(grid) {
					b.Fatal("short sweep")
				}
			}
			b.ReportMetric(float64(len(grid))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkSweepManyParallel measures the workload-level fan-out: all six
// scale-out + VM workloads swept over a small grid, serial vs parallel.
func BenchmarkSweepManyParallel(b *testing.B) {
	grid := []float64{0.3e9, 1.0e9, 2.0e9}
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := benchExplorer(b, experiments.Env{Jobs: jobs})
				if _, err := e.SweepMany(context.Background(), workload.All(), grid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead quantifies the observability layer's
// disabled-path cost: the instrumented-but-disabled hot loop (the nil
// checks the obs layer added to cpu.load and dram.Submit) against the
// same loop with instrumentation enabled. The disabled path IS the seed
// hot path — goldens prove byte-for-byte output equality — so
// `disabled-ns/kcycle` is the number to compare against pre-obs baselines,
// and `enabled-overhead-pct` documents what turning everything on costs.
// The acceptance bound is <2% for the disabled path; the alternating
// rounds share one cluster pair so allocator and cache effects cancel.
func BenchmarkObsOverhead(b *testing.B) {
	const runCycles = 20_000
	mk := func(enable bool) *sim.Cluster {
		cl, err := sim.NewCluster(sim.DefaultConfig(), workload.WebSearch(), 2e9)
		if err != nil {
			b.Fatal(err)
		}
		if enable {
			cl.EnableObs()
		}
		cl.FastForward(400_000)
		cl.Run(10_000)
		return cl
	}
	disabled := mk(false)
	enabled := mk(true)
	var disabledNs, enabledNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		disabled.Run(runCycles)
		t1 := time.Now()
		enabled.Run(runCycles)
		t2 := time.Now()
		disabledNs += t1.Sub(t0)
		enabledNs += t2.Sub(t1)
	}
	b.StopTimer()
	kcycles := float64(runCycles) / 1e3 * float64(b.N)
	b.ReportMetric(float64(disabledNs)/kcycles, "disabled-ns/kcycle")
	b.ReportMetric(float64(enabledNs)/kcycles, "enabled-ns/kcycle")
	overhead := 100 * (float64(enabledNs)/float64(disabledNs) - 1)
	b.ReportMetric(overhead, "enabled-overhead-pct")
	// The <2% acceptance bound applies to the fully-enabled hot loop (the
	// disabled path is the seed path by construction). Only meaningful
	// once enough rounds ran to average out scheduler noise.
	if b.N >= 10 && overhead > 2.0 {
		b.Errorf("enabled observability overhead %.2f%% exceeds the 2%% budget", overhead)
	}
}

// BenchmarkObsOverheadSampler quantifies the telemetry sampler's cost on
// the serving DES: the same diurnal run with the Telemetry hook nil
// (attribution entirely skipped — the seed path) against one recording
// into a live Series. Attribution is per-epoch work amortized over
// thousands of request events, so the enabled path must stay inside the
// same <2% budget the metrics layer honors; `make bench-obs` runs both
// gates.
func BenchmarkObsOverheadSampler(b *testing.B) {
	spec, err := platform.Default()
	if err != nil {
		b.Fatal(err)
	}
	curve, err := governor.NewPerfCurve([]governor.PerfPoint{
		{FreqHz: 0.2e9, UIPS: 4e9}, {FreqHz: 0.5e9, UIPS: 9e9},
		{FreqHz: 1.0e9, UIPS: 16e9}, {FreqHz: 1.5e9, UIPS: 21e9},
		{FreqHz: 2.0e9, UIPS: 25e9},
	})
	if err != nil {
		b.Fatal(err)
	}
	gov := &governor.Config{
		Platform:       spec,
		Curve:          curve,
		Tail:           qos.NewTailModel(8, 50*time.Millisecond, 25e9),
		QoSLimit:       200 * time.Millisecond,
		UncoreW:        23,
		MemBackgroundW: 15,
		MemDynPerReq:   1e-3,
		Margin:         0.85,
	}
	// A long horizon keeps each timed run ~100ms so millisecond-scale
	// scheduler noise stays well under the 2% resolution the gate needs.
	tr := governor.LoadTrace{Step: time.Second, Lambda: make([]float64, 240)}
	for i := range tr.Lambda {
		tr.Lambda[i] = 300
	}
	runOnce := func(tel *timeseries.Series) time.Duration {
		s, err := serve.New(serve.Config{
			Gov:             gov,
			Policy:          serve.Tracking{},
			Balancer:        serve.NewJSQ(),
			Clusters:        2,
			CoresPerCluster: 4,
			Trace:           tr,
			Warmup:          2 * time.Second,
			Telemetry:       tel,
		}, rng.New(42))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		t0 := time.Now()
		if _, err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	// Scheduler and frequency noise on a shared host dwarfs the per-run
	// signal, so each round times a back-to-back disabled/enabled pair
	// (drift within a round cancels) and the gate takes the MEDIAN of the
	// per-round ratios — single inflated rounds cannot move it.
	ratios := make([]float64, 0, b.N)
	var disabledNs, enabledNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := runOnce(nil)
		e := runOnce(timeseries.NewSampler().Series("bench"))
		disabledNs += d
		enabledNs += e
		ratios = append(ratios, float64(e)/float64(d))
	}
	b.StopTimer()
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	b.ReportMetric(float64(disabledNs)/float64(b.N), "disabled-ns/run")
	b.ReportMetric(float64(enabledNs)/float64(b.N), "enabled-ns/run")
	overhead := 100 * (median - 1)
	b.ReportMetric(overhead, "enabled-overhead-pct")
	if b.N >= 10 && overhead > 2.0 {
		b.Errorf("telemetry sampler overhead %.2f%% exceeds the 2%% budget", overhead)
	}
}

// benchServeGov builds the governor configuration the serving-DES
// benchmarks share: a 4x4 fleet against a five-point performance curve.
func benchServeGov(b *testing.B, cores int) *governor.Config {
	b.Helper()
	spec, err := platform.Default()
	if err != nil {
		b.Fatal(err)
	}
	curve, err := governor.NewPerfCurve([]governor.PerfPoint{
		{FreqHz: 0.2e9, UIPS: 4e9}, {FreqHz: 0.5e9, UIPS: 9e9},
		{FreqHz: 1.0e9, UIPS: 16e9}, {FreqHz: 1.5e9, UIPS: 21e9},
		{FreqHz: 2.0e9, UIPS: 25e9},
	})
	if err != nil {
		b.Fatal(err)
	}
	return &governor.Config{
		Platform:       spec,
		Curve:          curve,
		Tail:           qos.NewTailModel(cores, 50*time.Millisecond, 25e9),
		QoSLimit:       200 * time.Millisecond,
		UncoreW:        23,
		MemBackgroundW: 15,
		MemDynPerReq:   1e-3,
		Margin:         0.85,
	}
}

// BenchmarkServeSteadyState measures the DES event loop's steady-state
// throughput: a constant-rate day served by a 4x4 fleet with no metrics,
// tracer or telemetry attached, so the timed region is exactly the event
// loop (arrival dispatch, heap scheduling, departure completion, epoch
// close). `events/s` is the headline number the perf trajectory tracks
// (BENCH_*.json); the alloc gates for this path live in
// internal/serve/alloc_test.go.
func BenchmarkServeSteadyState(b *testing.B) {
	gov := benchServeGov(b, 16)
	tr := governor.LoadTrace{Step: time.Second, Lambda: make([]float64, 60)}
	for i := range tr.Lambda {
		tr.Lambda[i] = 600
	}
	for _, bal := range []func() serve.Balancer{serve.NewJSQ, serve.NewRandom} {
		name := bal().Name()
		b.Run("balancer="+name, func(b *testing.B) {
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := serve.New(serve.Config{
					Gov:             gov,
					Policy:          serve.Tracking{},
					Balancer:        bal(),
					Clusters:        4,
					CoresPerCluster: 4,
					Trace:           tr,
				}, rng.New(42))
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(context.Background())
				s.Close()
				if err != nil {
					b.Fatal(err)
				}
				if res.Served == 0 {
					b.Fatal("no requests served")
				}
				events += res.Arrivals + res.Served + res.Dropped + uint64(len(tr.Lambda))
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkClusterAccess measures the full-system memory access kernel —
// the path every L1 miss takes through bank selection, the crossbar, the
// LLC bank and (on LLC misses) DRAM — over a deterministic LCG address
// stream against a warmed cluster. The sweep engine's inner loop is
// dominated by exactly this path, so its ns/op is the second number the
// perf trajectory tracks.
func BenchmarkClusterAccess(b *testing.B) {
	cl, err := sim.NewCluster(sim.DefaultConfig(), workload.WebSearch(), 2e9)
	if err != nil {
		b.Fatal(err)
	}
	cl.FastForward(400_000)
	var addr uint64 = 0x5eed
	nowNs := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*2862933555777941757 + 3037000493
		nowNs += 2.0
		cl.Access(0, addr&((1<<30)-1), i&7 == 0, nowNs)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkAblationPrefetch measures the stream-prefetcher extension on
// the streaming workload.
func BenchmarkAblationPrefetch(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		uipc := func(pf bool) float64 {
			cfg := sim.DefaultConfig()
			cfg.Core.StridePrefetch = pf
			cl, err := sim.NewCluster(cfg, workload.MediaStreaming(), 2e9)
			if err != nil {
				b.Fatal(err)
			}
			cl.FastForward(600000)
			cl.Run(10000)
			return cl.Measure(30000).UIPC()
		}
		speedup = uipc(true) / uipc(false)
	}
	b.ReportMetric(speedup, "prefetch-speedup-x")
}
