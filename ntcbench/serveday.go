package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"ntcsim/internal/experiments"
	"ntcsim/internal/governor"
	"ntcsim/internal/obs"
	"ntcsim/internal/parallel"
	"ntcsim/internal/qos"
	"ntcsim/internal/rng"
	"ntcsim/internal/serve"
	"ntcsim/internal/workload"
)

// serveDay runs the serve experiment's seven policy x balancer scenarios
// with serve.New/Sim.Run over the compressed diurnal day, as the serve
// experiment would at serveDays seeds. Set-up builds the governor config
// and its performance curve from public constructors, so the timed part
// is the DES alone. The curve's points come from a cycle-level sweep that
// is the same for every child of a run, so the run's shared set-up does
// it once (see preparer).
type serveDay struct {
	c        *child
	cfg      *governor.Config
	days     []dayInput
	clusters int
	cores    int
	golden   []byte // serve.golden; nil off the default seed

	// What the last timed part simulated, for the traced ledger.
	arrivals, served, dropped, events uint64
	elapsed                           time.Duration
}

func newServeDay(c *child) runner { return &serveDay{c: c} }

// serveDays is how many days one timed part simulates. The first is the
// serve experiment's day at the run's seed; the others are its days at
// seeds derived from it. Each seed's day has its own cost: on a 2-vCPU
// host the slowest scenario's time differed by over 10% between seeds
// and repeated within 1% at one seed. With one day per run the
// run-to-run spread would be mostly that seed effect; four average it.
const serveDays = 4

// dayInput is one simulated day: its load trace and the stream its
// scenarios' simulations are seeded from.
type dayInput struct {
	load governor.LoadTrace
	root *rng.Stream
}

// serveWarmup matches the serve experiment: requests arriving in the
// first five simulated seconds are excluded from the latency statistics.
const serveWarmup = 5 * time.Second

// prepare runs the governor's performance sweep, web-search at seven
// frequencies, and writes its points to the run's shared file. JSON
// carries each float64 exactly.
func (s *serveDay) prepare(ctx context.Context) error {
	e, err := s.c.params().Normalized().NewExplorer(experiments.Env{Jobs: nproc()})
	if err != nil {
		return err
	}
	sweep, err := e.Sweep(ctx, workload.WebSearch(), []float64{0.2e9, 0.3e9, 0.5e9, 0.7e9, 1.0e9, 1.5e9, 2.0e9})
	if err != nil {
		return err
	}
	var pts []governor.PerfPoint
	for _, pt := range sweep.Points {
		pts = append(pts, governor.PerfPoint{FreqHz: pt.FreqHz, UIPS: pt.UIPSChip})
	}
	data, err := json.Marshal(pts)
	if err != nil {
		return err
	}
	return os.WriteFile(s.c.shared, data, 0o644)
}

func (s *serveDay) setup(ctx context.Context) error {
	if s.c.defaultSeed() {
		g, err := s.c.golden("serve")
		if err != nil {
			return err
		}
		s.golden = g
	}
	p := s.c.params().Normalized()
	e, err := p.NewExplorer(experiments.Env{Jobs: nproc()})
	if err != nil {
		return err
	}
	app := workload.WebSearch()
	data, err := os.ReadFile(s.c.shared)
	if err != nil {
		return fmt.Errorf("performance sweep: %w", err)
	}
	var pts []governor.PerfPoint
	if err := json.Unmarshal(data, &pts); err != nil {
		return fmt.Errorf("performance sweep: %w", err)
	}
	curve, err := governor.NewPerfCurve(pts)
	if err != nil {
		return err
	}
	maxUIPS := curve.UIPSAt(curve.MaxFreq())
	llcW, xbarW, ioW := e.Platform.UncorePowerParts(100e6, 40e6, 150e6)
	s.cfg = &governor.Config{
		Platform:       e.Platform,
		Curve:          curve,
		Tail:           qos.NewTailModel(e.Platform.TotalCores(), app.Baseline99p, maxUIPS),
		QoSLimit:       app.QoSLimit,
		UncoreW:        e.Platform.UncorePowerW(100e6, 40e6, 150e6),
		MemBackgroundW: e.Platform.MemoryPowerW(0, 0),
		MemDynPerReq:   2e-3,
		Margin:         0.85,
		Uncore:         governor.UncoreBreakdown{LLCW: llcW, XbarW: xbarW, IOW: ioW},
	}
	peak := s.cfg.Tail.MaxLoad(s.cfg.QoSLimit, maxUIPS) * 0.7
	more := rng.New(p.Seed).Derive("ntcbench/serve-day")
	for d, seed := 0, p.Seed; d < serveDays; d, seed = d+1, more.Uint64() {
		s.days = append(s.days, dayInput{
			load: governor.DiurnalTrace(96, peak, 0.15, 0.04, 1.3, rng.New(seed)).WithStep(time.Second),
			root: rng.New(seed).Derive("serve-cmd"),
		})
	}
	s.clusters, s.cores = e.Platform.Clusters, e.Platform.CoresPerCl
	return nil
}

// scenario is one policy x balancer pair of the serve experiment.
type scenario struct {
	policy   serve.Policy
	balancer func() serve.Balancer
}

// scenarios is the serve experiment's grid: the balancers under the
// max-frequency baseline, then the governor policies on JSQ.
func (s *serveDay) scenarios() []scenario {
	fmax := s.cfg.Curve.MaxFreq()
	maxF := serve.Static{Label: "max-frequency", FreqHz: fmax}
	return []scenario{
		{maxF, serve.NewRandom},
		{maxF, serve.NewRoundRobin},
		{maxF, serve.NewLeastLoaded},
		{maxF, serve.NewJSQ},
		{serve.Static{Label: "race-to-idle", FreqHz: fmax, Sleep: true}, serve.NewJSQ},
		{serve.Tracking{}, serve.NewJSQ},
		{serve.QueueAware{}, serve.NewJSQ},
	}
}

func (s *serveDay) timed(ctx context.Context) (outcome, error) {
	scs := s.scenarios()
	if s.c.reg != nil {
		ctx = parallel.WithObserver(ctx, obs.PoolObserver(s.c.reg, "serve"))
	}
	n := len(s.days) * len(scs)
	durs := make([]float64, n)
	start := now()
	// Task i is scenario i%len(scs) of day i/len(scs).
	results, err := parallel.Map(ctx, n, nproc(), func(ctx context.Context, i int) (serve.Result, error) {
		start := now()
		defer func() { durs[i] = ms(since(start)) }()
		day, sc := s.days[i/len(scs)], scs[i%len(scs)]
		sim, err := serve.New(serve.Config{
			Gov:             s.cfg,
			Policy:          sc.policy,
			Balancer:        sc.balancer(),
			Clusters:        s.clusters,
			CoresPerCluster: s.cores,
			Trace:           day.load,
			Warmup:          serveWarmup,
			Metrics:         s.c.reg,
		}, day.root.Split(uint64(i%len(scs))))
		if err != nil {
			return serve.Result{}, err
		}
		defer sim.Close()
		return sim.Run(ctx)
	})
	out := outcome{attempted: n, opsMs: durs}
	if err != nil {
		out.fail("serve days: %v", err)
		return out, nil
	}
	s.elapsed = since(start)
	s.arrivals, s.served, s.dropped, s.events = 0, 0, 0, 0
	for i, r := range results {
		s.arrivals += r.Arrivals
		s.served += r.Served
		s.dropped += r.Dropped
		s.events += r.Arrivals + r.Served + r.Dropped + uint64(len(s.days[i/len(scs)].load.Lambda))
		// The ledger is filled only when metrics are on; every count and
		// quantile must repeat exactly between traced and untraced runs.
		out.digest = fmt.Appendf(out.digest, "%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%v|%v\n",
			r.Policy, r.Balancer, r.Arrivals, r.Served, r.Dropped, r.Violations, r.Boosts,
			r.P50, r.P95, r.P99, r.P999, r.MaxQueue, r.EnergyJ, r.AvgPowerW)
	}
	out.units = float64(s.events)
	if s.golden != nil {
		// The first day is the serve experiment's day at the run's seed.
		if got := serveReport(results[:len(scs)]); !bytes.Equal(got, s.golden) {
			out.fail("serve report differs from cmd/ntcsim/testdata/golden/serve.golden")
		}
	}
	return out, nil
}

// serveReport renders results as the serve experiment prints them, for
// the comparison with serve.golden.
func serveReport(results []serve.Result) []byte {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "== Request serving: closed-loop DES over a diurnal day (web-search) ==")
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tbalancer\tserved\tp50_ms\tp95_ms\tp99_ms\tp99.9_ms\tviolations\tdrops\tenergy_kJ\tavg_W")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\t%.2f\t%.1f\n",
			r.Policy, r.Balancer, r.Served,
			ms(r.P50), ms(r.P95), ms(r.P99), ms(r.P999),
			r.Violations, r.Dropped, r.EnergyJ/1e3, r.AvgPowerW)
	}
	w.Flush()
	return buf.Bytes()
}

// trace reports the DES counts and event rate of the traced timed part
// and checks them against the serve.* counters the simulations fed into
// the metrics registry.
func (s *serveDay) trace(ctx context.Context, layers map[string]float64) error {
	layers["serve.arrivals"] = float64(s.arrivals)
	layers["serve.served"] = float64(s.served)
	layers["serve.dropped"] = float64(s.dropped)
	layers["serve.events_per_s"] = float64(s.events) / s.elapsed.Seconds()
	snap := s.c.reg.Snapshot()
	for name, want := range map[string]uint64{"serve.arrivals": s.arrivals, "serve.served": s.served, "serve.dropped": s.dropped} {
		if got := snap.Counters[name]; got != want {
			return fmt.Errorf("registry counter %s = %d, results sum to %d", name, got, want)
		}
	}
	return nil
}

// exactCounts: the registry holds only the DES days' serve.* counters.
func (s *serveDay) exactCounts() bool { return true }

func (s *serveDay) close() {}
