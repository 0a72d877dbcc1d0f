package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ntcsim/internal/core"
	"ntcsim/internal/experiments"
	"ntcsim/internal/obs"
	"ntcsim/internal/qos"
	"ntcsim/internal/rng"
	"ntcsim/internal/sampling"
	"ntcsim/internal/sim"
	"ntcsim/internal/workload"
)

// sweepRunner is a sweep workload: experiments.Run of one or more figures
// at the golden parameters, with Env.Jobs = nproc.
type sweepRunner struct {
	c        *child
	figs     []string
	profiles []*workload.Profile
	// ckptDir, when set, holds warmed checkpoints built in set-up that the
	// timed part restores instead of warming.
	ckptDir string
	ckpts   map[string]string // checkpoint file -> size and mtime after set-up
	golden  [][]byte          // expected report per figure; nil off the default seed
}

// newScaleoutCold runs Fig. 2 then Fig. 3 in one process with no
// checkpoint directory, paying warmup cold as `ntcsim fig2 fig3` does.
func newScaleoutCold(c *child) runner {
	return &sweepRunner{c: c, figs: []string{"fig2", "fig3"}, profiles: workload.ScaleOutProfiles()}
}

// newVMWarm builds warmed checkpoints of the VM profiles in set-up and
// times Fig. 4 restoring from them.
func newVMWarm(c *child) runner {
	return &sweepRunner{c: c, figs: []string{"fig4"}, profiles: workload.VMProfiles(),
		ckptDir: filepath.Join(c.dir, "ckpt")}
}

func (s *sweepRunner) setup(ctx context.Context) error {
	if s.c.defaultSeed() {
		for _, f := range s.figs {
			g, err := s.c.golden(f)
			if err != nil {
				return err
			}
			s.golden = append(s.golden, g)
		}
	}
	if s.ckptDir == "" {
		return nil
	}
	// A one-point sweep per profile warms it and saves its checkpoint,
	// exactly as the "warm" experiment does for every profile.
	e, err := s.c.params().NewExplorer(experiments.Env{Jobs: nproc(), CheckpointDir: s.ckptDir})
	if err != nil {
		return err
	}
	if _, err = e.SweepMany(ctx, s.profiles, []float64{2e9}); err != nil {
		return err
	}
	s.ckpts, err = listCheckpoints(s.ckptDir)
	if err == nil && len(s.ckpts) != len(s.profiles) {
		err = fmt.Errorf("set-up left %d checkpoints for %d profiles", len(s.ckpts), len(s.profiles))
	}
	return err
}

// listCheckpoints maps each .ckpt file in dir to its size and
// modification time.
func listCheckpoints(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string]string{}
	for _, en := range entries {
		if filepath.Ext(en.Name()) != ".ckpt" {
			continue
		}
		info, err := en.Info()
		if err != nil {
			return nil, err
		}
		files[en.Name()] = fmt.Sprintf("%d bytes, mtime %d", info.Size(), info.ModTime().UnixNano())
	}
	return files, nil
}

// checkRestored is one operation of the timed part: it fails unless the
// figures restored the set-up's checkpoints as they were. A checkpoint
// that is missing, stale or corrupt is re-warmed silently or with only a
// notice, which would turn the warm sweep into a cold one while every
// output stays correct.
func (s *sweepRunner) checkRestored(out *outcome, notices []string) {
	out.attempted++
	bad := notices
	after, err := listCheckpoints(s.ckptDir)
	if err != nil {
		bad = append(bad, err.Error())
	}
	for name, was := range s.ckpts {
		if cur, ok := after[name]; !ok {
			bad = append(bad, name+" is gone")
		} else if cur != was {
			bad = append(bad, fmt.Sprintf("%s was rewritten (%s, set-up left %s)", name, cur, was))
		}
	}
	for name := range after {
		if _, ok := s.ckpts[name]; !ok {
			bad = append(bad, name+" is new")
		}
	}
	if len(bad) > 0 {
		out.fail("the timed part did not restore the set-up's checkpoints: %s", strings.Join(bad, "; "))
	}
}

func (s *sweepRunner) timed(ctx context.Context) (outcome, error) {
	var out outcome
	var mu sync.Mutex
	var notices []string
	warnf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		notices = append(notices, fmt.Sprintf(format, args...))
	}
	for i, f := range s.figs {
		var buf bytes.Buffer
		start := now()
		_, err := experiments.Run(ctx, f, s.c.params(), experiments.Env{
			Out: &buf, Jobs: nproc(), CheckpointDir: s.ckptDir, Obs: s.c.reg, Warnf: warnf,
		})
		out.opsMs = append(out.opsMs, ms(since(start)))
		out.attempted++
		if err != nil {
			out.fail("%s: %v", f, err)
			continue
		}
		if s.golden != nil && !bytes.Equal(buf.Bytes(), s.golden[i]) {
			out.fail("%s: report differs from cmd/ntcsim/testdata/golden/%s.golden", f, f)
		}
		out.digest = append(out.digest, buf.Bytes()...)
	}
	out.units = float64(len(s.figs) * len(s.profiles) * len(core.DefaultFrequencies()))
	if s.ckptDir != "" {
		s.checkRestored(&out, notices)
	}
	return out, nil
}

// exactCounts: the registry holds only the sweeps' simulated statistics.
func (s *sweepRunner) exactCounts() bool { return true }

func (s *sweepRunner) close() {}

// trace replays one profile's sweep through the public pipeline with a
// timing wrapper around sampling.Target, checks it point for point against
// Explorer.Sweep at Jobs = nproc, and times the generator and the cluster
// access kernel on their own.
func (s *sweepRunner) trace(ctx context.Context, layers map[string]float64) error {
	if err := s.replay(ctx, s.profiles[0], layers); err != nil {
		return err
	}
	var sum float64
	for _, p := range s.profiles {
		ns := generatorNs(p, s.c.seed)
		layers["workload.next_ns."+p.Name] = ns
		sum += ns
	}
	layers["workload.next_ns"] = sum / float64(len(s.profiles))
	ns, err := accessNs()
	layers["sim.access_ns"] = ns
	return err
}

// phaseTarget is a sampling.Target that accumulates the host time of each
// SMARTS phase: FastForward is the functional fast-forward, Run the
// detailed warmup, Measure the measured window.
type phaseTarget struct {
	cl                *sim.Cluster
	ff, warm, measure *time.Duration
}

func (t phaseTarget) FastForward(n uint64) {
	start := now()
	t.cl.FastForward(n)
	*t.ff += since(start)
}

func (t phaseTarget) Run(cycles int64) {
	start := now()
	t.cl.Run(cycles)
	*t.warm += since(start)
}

func (t phaseTarget) Measure(cycles int64) sim.Measurement {
	start := now()
	m := t.cl.Measure(cycles)
	*t.measure += since(start)
	return m
}

// simCounts are the simulated statistics of a sweep's measured windows.
type simCounts struct{ instructions, cycles, windows, dramReads uint64 }

func (a *simCounts) add(res sampling.Result) {
	a.instructions += res.TotalInstr
	a.cycles += uint64(res.TotalCycles)
	a.windows += uint64(len(res.Samples))
	for _, m := range res.Samples {
		a.dramReads += m.DRAM.Reads
	}
}

// replay runs profile p's sweep step by step, as Explorer.Sweep does it
// serially: NewCluster -> FastForward -> Run (warm), sampling.Run
// (baseline), Checkpoint, then per frequency RestoreCluster -> Reseed ->
// SetFrequency -> Run (settle) -> sampling.Run. Each step is timed. The
// per-point chip UIPS and the summed simulated counts must equal those of
// Explorer.Sweep run with Jobs = nproc, so the replay doubles as the
// serial-versus-parallel determinism check.
func (s *sweepRunner) replay(ctx context.Context, p *workload.Profile, layers map[string]float64) error {
	e, err := s.c.params().NewExplorer(experiments.Env{Jobs: 1})
	if err != nil {
		return err
	}
	var ff, warm, measure time.Duration
	span := func(name string, f func() error) error {
		start := now()
		err := f()
		layers[name] += since(start).Seconds()
		return err
	}
	var cl *sim.Cluster
	if err := span("sim.warm_s", func() error {
		var err error
		if cl, err = sim.NewCluster(e.Sim, p, qos.BaselineFreqHz); err != nil {
			return err
		}
		cl.FastForward(e.WarmInstr)
		cl.Run(e.SettleCycles)
		return nil
	}); err != nil {
		return err
	}
	cfg := e.SamplingFor(p)
	if _, err := sampling.Run(phaseTarget{cl, &ff, &warm, &measure}, cfg); err != nil {
		return err
	}
	var ck *sim.Checkpoint
	span("sim.checkpoint_s", func() error { ck = cl.Checkpoint(); return nil })

	freqs := core.DefaultFrequencies()
	root := rng.New(e.Sim.Seed).Derive("sweep/" + p.Name)
	clusters := float64(e.Platform.Clusters)
	uips := make([]float64, len(freqs))
	var counts simCounts
	for i, f := range freqs {
		var pcl *sim.Cluster
		if err := span("sim.restore_s", func() error {
			var err error
			pcl, err = sim.RestoreCluster(ck)
			return err
		}); err != nil {
			return err
		}
		pcl.Reseed(root.Split(uint64(i)))
		pcl.SetFrequency(f)
		span("sim.settle_s", func() error { pcl.Run(e.SettleCycles); return nil })
		res, err := sampling.Run(phaseTarget{pcl, &ff, &warm, &measure}, cfg)
		if err != nil {
			return err
		}
		uips[i] = res.MeanUIPS() * clusters
		counts.add(res)
	}
	layers["sampling.fastforward_s"] = ff.Seconds()
	layers["sampling.warmup_s"] = warm.Seconds()
	layers["sampling.measure_s"] = measure.Seconds()

	reg := obs.NewRegistry()
	pe, err := s.c.params().NewExplorer(experiments.Env{Jobs: nproc(), Obs: reg})
	if err != nil {
		return err
	}
	sw, err := pe.Sweep(ctx, p, freqs)
	if err != nil {
		return err
	}
	for i, pt := range sw.Points {
		if math.Float64bits(pt.UIPSChip) != math.Float64bits(uips[i]) {
			return fmt.Errorf("replay of %s at %.0f MHz: UIPS %v, Explorer.Sweep %v", p.Name, freqs[i]/1e6, uips[i], pt.UIPSChip)
		}
	}
	snap := reg.Snapshot()
	want := simCounts{snap.Counters["sim.instructions"], snap.Counters["sim.cycles"],
		snap.Counters["sim.windows"], snap.Counters["dram.reads"]}
	if counts != want {
		return fmt.Errorf("replay of %s at Jobs=1 counted %+v, Explorer.Sweep at Jobs=%d %+v", p.Name, counts, nproc(), want)
	}
	return nil
}

// generatorNs times workload.Generator.Next for one profile, after a
// short warm-up, in ns per call.
func generatorNs(p *workload.Profile, seed uint64) float64 {
	const warmup, n = 10_000, 1_000_000
	g := workload.NewGenerator(p, 0, rng.New(seed).Derive("ntcbench/next"))
	var in workload.Instr
	for i := 0; i < warmup; i++ {
		g.Next(&in)
	}
	start := now()
	for i := 0; i < n; i++ {
		g.Next(&in)
	}
	return float64(since(start).Nanoseconds()) / n
}

// accessNs times the cluster access kernel in ns per access, with the
// same warm state and address stream as BenchmarkClusterAccess (the
// kernel BENCH_9.json records).
func accessNs() (float64, error) {
	const n = 2_000_000
	cl, err := sim.NewCluster(sim.DefaultConfig(), workload.WebSearch(), 2e9)
	if err != nil {
		return 0, err
	}
	cl.FastForward(400_000)
	var addr uint64 = 0x5eed
	nowNs := 0.0
	start := now()
	for i := 0; i < n; i++ {
		addr = addr*2862933555777941757 + 3037000493
		nowNs += 2.0
		cl.Access(0, addr&((1<<30)-1), i&7 == 0, nowNs)
	}
	return float64(since(start).Nanoseconds()) / n, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
