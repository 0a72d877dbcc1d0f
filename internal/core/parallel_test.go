package core

import (
	"context"
	"testing"

	"ntcsim/internal/workload"
)

// determinismExplorer returns a reduced-cost explorer for the parallel
// determinism tests (smaller warmup than testExplorer: these tests pay the
// warmup on every run instead of sharing the sweep cache).
func determinismExplorer(t *testing.T, jobs int) *Explorer {
	t.Helper()
	e := newTestExplorer(t, 300_000, 5_000)
	e.Jobs = jobs
	return e
}

var determinismFreqs = []float64{0.2e9, 0.5e9, 1.0e9, 2.0e9}

// skipExhaustive gates the multi-run determinism tests: they repeat full
// warmup+sweep cycles several times, which is the point in a normal run but
// pure overhead under -short, and under -race adds minutes beyond what
// TestParallelSweepRaceSmoke already covers.
func skipExhaustive(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("exhaustive determinism test; skipped in -short and -race runs")
	}
}

// TestSweepBitIdenticalAcrossWorkerCounts is the hard requirement of the
// parallel sweep engine: the serial reference (jobs=1) and every parallel
// configuration must produce byte-for-byte identical sweeps, and repeated
// runs must reproduce themselves exactly.
func TestSweepBitIdenticalAcrossWorkerCounts(t *testing.T) {
	skipExhaustive(t)
	run := func(jobs int) *Sweep {
		e := determinismExplorer(t, jobs)
		sw, err := e.Sweep(context.Background(), workload.WebSearch(), determinismFreqs)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	ref := run(1)
	if len(ref.Points) != len(determinismFreqs) {
		t.Fatalf("reference sweep has %d points", len(ref.Points))
	}
	for _, jobs := range []int{1, 2, 8} {
		got := run(jobs)
		if got.BaselineUIPS != ref.BaselineUIPS {
			t.Fatalf("jobs=%d: baseline %v differs from serial %v",
				jobs, got.BaselineUIPS, ref.BaselineUIPS)
		}
		for i := range ref.Points {
			// Point is a comparable struct of plain floats/bools/ints, so ==
			// is exact bit equality.
			if got.Points[i] != ref.Points[i] {
				t.Fatalf("jobs=%d: point %d differs from the serial reference:\ngot  %+v\nwant %+v",
					jobs, i, got.Points[i], ref.Points[i])
			}
		}
	}
}

// TestSweepReproducibleAcrossExplorerInstances: two independently built
// explorers (fresh warmup, fresh checkpoint, different worker counts)
// must agree exactly on the same grid.
func TestSweepReproducibleAcrossExplorerInstances(t *testing.T) {
	skipExhaustive(t)
	a := determinismExplorer(t, 2)
	b := determinismExplorer(t, 3)
	swA, err := a.Sweep(context.Background(), workload.MediaStreaming(), determinismFreqs)
	if err != nil {
		t.Fatal(err)
	}
	swB, err := b.Sweep(context.Background(), workload.MediaStreaming(), determinismFreqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range swA.Points {
		if swA.Points[i] != swB.Points[i] {
			t.Fatalf("independent explorers disagree at point %d", i)
		}
	}
}

// TestSweepManyMatchesIndividualSweeps: fanning workloads across workers
// must not change any workload's result, and the slice order must follow
// the profile order.
func TestSweepManyMatchesIndividualSweeps(t *testing.T) {
	skipExhaustive(t)
	profiles := []*workload.Profile{workload.WebSearch(), workload.VMLowMem()}
	many := determinismExplorer(t, 4)
	sweeps, err := many.SweepMany(context.Background(), profiles, determinismFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != len(profiles) {
		t.Fatalf("SweepMany returned %d sweeps for %d profiles", len(sweeps), len(profiles))
	}
	for i, p := range profiles {
		if sweeps[i].Workload.Name != p.Name {
			t.Fatalf("sweep %d is %s, want profile order (%s)", i, sweeps[i].Workload.Name, p.Name)
		}
		one := determinismExplorer(t, 1)
		ref, err := one.Sweep(context.Background(), p, determinismFreqs)
		if err != nil {
			t.Fatal(err)
		}
		if sweeps[i].BaselineUIPS != ref.BaselineUIPS {
			t.Fatalf("%s: SweepMany baseline differs from individual sweep", p.Name)
		}
		for j := range ref.Points {
			if sweeps[i].Points[j] != ref.Points[j] {
				t.Fatalf("%s: SweepMany point %d differs from individual sweep", p.Name, j)
			}
		}
	}
}

// TestParallelSweepRaceSmoke drives the parallel engine with more workers
// than points and again with workloads fanned out, as a short-mode target
// for `go test -race`: any shared-state race in restore, reseed, sampling
// or evaluation trips the detector here.
func TestParallelSweepRaceSmoke(t *testing.T) {
	e := determinismExplorer(t, 8)
	e.WarmInstr = 100_000
	if _, err := e.Sweep(context.Background(), workload.WebServing(), []float64{0.3e9, 0.7e9, 1.5e9}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SweepMany(context.Background(),
		[]*workload.Profile{workload.WebSearch(), workload.VMHighMem()},
		[]float64{0.5e9, 2.0e9}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepErrorPropagatesFromWorkers(t *testing.T) {
	e := determinismExplorer(t, 4)
	e.WarmInstr = 100_000
	// 50GHz is unreachable for the technology: the evaluate step of that
	// point must fail and surface through the pool.
	_, err := e.Sweep(context.Background(), workload.WebSearch(), []float64{0.5e9, 50e9})
	if err == nil {
		t.Fatal("unreachable frequency must fail the sweep")
	}
}
