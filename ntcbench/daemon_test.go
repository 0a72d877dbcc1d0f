package main

import (
	"reflect"
	"testing"

	"ntcsim/internal/experiments"
)

// TestMixPlanDeterministic: the seeded daemon-mix generator yields the
// identical job sequence for the same seed, and another for another seed.
func TestMixPlanDeterministic(t *testing.T) {
	p1, b1 := mixPlan(0x5eed)
	p2, b2 := mixPlan(0x5eed)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("same seed, different plans")
	}
	_, b3 := mixPlan(0x5eee)
	if reflect.DeepEqual(b1, b3) {
		t.Fatal("different seeds, same plan")
	}
}

// TestMixPlanShape checks the fixed composition and the invariants the
// client relies on.
func TestMixPlanShape(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x5eed, 1 << 63} {
		prime, body := mixPlan(seed)
		if got, want := jobCount(prime)+jobCount(body), poolSize+4*freshPerExperiment+resubmits+poolHits+2*dupPairs+cancels; got != want || got < 100 {
			t.Fatalf("seed %d: %d jobs, want %d (and at least 100)", seed, got, want)
		}
		pool := map[uint64]bool{}
		for _, st := range prime {
			pool[st.Seed] = true
		}
		seeds := map[uint64]bool{}
		kinds := map[string]int{}
		for i, st := range body {
			kinds[st.Kind]++
			switch st.Kind {
			case kindFresh, kindDup, kindCancel:
				if seeds[st.Seed] || pool[st.Seed] || st.Seed == 0 || st.Seed == experiments.DefaultSeed {
					t.Errorf("seed %d: step %d reuses seed %d", seed, i, st.Seed)
				}
				seeds[st.Seed] = true
			case kindPool:
				if !pool[st.Seed] {
					t.Errorf("seed %d: pool step %d names unpooled seed %d", seed, i, st.Seed)
				}
			case kindResub:
				src := body[st.Src]
				if st.Src > i-resubmitGap || src.Kind != kindFresh || src.Exp != st.Exp || src.Seed != st.Seed {
					t.Errorf("seed %d: resubmission %d names step %d (%+v)", seed, i, st.Src, src)
				}
			}
		}
		want := map[string]int{kindFresh: 4 * freshPerExperiment, kindResub: resubmits, kindPool: poolHits, kindDup: dupPairs, kindCancel: cancels}
		if !reflect.DeepEqual(kinds, want) {
			t.Errorf("seed %d: composition %v, want %v", seed, kinds, want)
		}
	}
}

// jobCount is the number of jobs a plan submits (a dup step submits two).
func jobCount(steps []step) int {
	n := len(steps)
	for _, s := range steps {
		if s.Kind == kindDup {
			n++
		}
	}
	return n
}

// TestMixPercentileGroups checks the arithmetic behind the plan's counts.
// Completed jobs fall into three latency groups, fastest first: the
// sub-millisecond jobs (cache hits and the table1, variation and
// darksilicon misses), the fig1 misses and duplicates, and the scaling
// primes. op_p50_ms must lie among the sub-millisecond jobs and op_p90_ms
// among the fig1 jobs, each with at least minBeyond jobs of its group on
// either side, and freshPerExperiment must be the smallest count for
// which that holds.
func TestMixPercentileGroups(t *testing.T) {
	// groups returns the [start, end) ranks of each latency group among
	// the completed jobs when every analytic experiment has fresh jobs.
	groups := func(fresh int) [][2]int {
		sizes := []int{
			resubmits + poolHits + (len(analytic)-1)*fresh,
			fresh + 2*dupPairs,
			poolSize,
		}
		var g [][2]int
		start := 0
		for _, n := range sizes {
			g = append(g, [2]int{start, start + n})
			start += n
		}
		return g
	}
	// inside reports whether both ranks type-7 interpolation reads for
	// quantile q lie in group g with minBeyond jobs of g on either side.
	inside := func(g [][2]int, group int, q float64) bool {
		n := g[len(g)-1][1]
		lo := int(q * float64(n-1))
		return lo-g[group][0] >= minBeyond && g[group][1]-1-(lo+1) >= minBeyond
	}
	ok := func(fresh int) bool {
		g := groups(fresh)
		return g[len(g)-1][1] >= 100 && inside(g, 0, 0.5) && inside(g, 1, 0.9)
	}
	if !ok(freshPerExperiment) {
		t.Errorf("freshPerExperiment = %d: percentiles sit on a group boundary: %v", freshPerExperiment, groups(freshPerExperiment))
	}
	if ok(freshPerExperiment - 1) {
		t.Errorf("freshPerExperiment = %d is not the smallest count that works", freshPerExperiment)
	}
	_, body := mixPlan(1)
	g := groups(freshPerExperiment)
	if got, want := jobCount(body)+poolSize-cancels, g[len(g)-1][1]; got != want {
		t.Errorf("plan completes %d jobs, groups hold %d", got, want)
	}
}
