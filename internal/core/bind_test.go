package core

import (
	"context"
	"testing"

	"ntcsim/internal/workload"
)

// editedWebSearch is web-search with nearly independent instructions
// under the stock name: the restore path must not swap the stock profile
// back in.
func editedWebSearch() *workload.Profile {
	p := workload.WebSearch()
	p.DepGeomP = 0.05
	return p
}

// TestSweepRunsEditedProfile checks that every point of a sweep runs the
// profile that was swept. Near-independent instructions raise throughput
// well above stock web-search's at every frequency (by 1.36x and more at
// the warmup used here); a point that restored the stock profile from the
// edited warm state lands within a percent of the stock sweep instead.
func TestSweepRunsEditedProfile(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		e, w := warmExplorer(t, dir)
		freqs := []float64{0.5e9, 2.0e9}
		stock, err := e.Sweep(context.Background(), workload.WebSearch(), freqs)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // with a directory: warm, then restore
			edited, err := e.Sweep(context.Background(), editedWebSearch(), freqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range freqs {
				if r := edited.Points[i].UIPSChip / stock.Points[i].UIPSChip; r < 1.15 {
					t.Fatalf("dir %q pass %d: edited sweep at %.1f GHz is %.3fx stock; the point ran the stock profile",
						dir, pass, f/1e9, r)
				}
			}
		}
		if len(w.lines) != 0 {
			t.Fatalf("dir %q: unexpected checkpoint notices: %q", dir, w.lines)
		}
	}
}

// TestSweepCustomNamedProfile checks that a profile unknown to
// workload.ByName sweeps, in memory and through a checkpoint directory,
// where the second sweep must restore the first one's checkpoint.
func TestSweepCustomNamedProfile(t *testing.T) {
	custom := workload.WebSearch()
	custom.Name = "my-search"
	for _, dir := range []string{"", t.TempDir()} {
		e, w := warmExplorer(t, dir)
		first, err := e.Sweep(context.Background(), custom, warmFreqs)
		if err != nil {
			t.Fatalf("dir %q: %v", dir, err)
		}
		second, err := e.Sweep(context.Background(), custom, warmFreqs)
		if err != nil {
			t.Fatalf("dir %q: %v", dir, err)
		}
		requireIdentical(t, first, second)
		if len(w.lines) != 0 {
			t.Fatalf("dir %q: the checkpoint did not restore: %q", dir, w.lines)
		}
		if dir != "" && len(ckptFiles(t, dir)) != 1 {
			t.Fatalf("want one checkpoint in %s, have %q", dir, ckptFiles(t, dir))
		}
	}
}
