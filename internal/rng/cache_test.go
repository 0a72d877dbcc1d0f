//go:build go1.24

package rng

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"
)

// cached reports whether c holds an entry for k.
func cached[K comparable, V any](c *weakCache[K, V], k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[k]
	return ok
}

// TestWeakTableCache checks that samplers of one (n, theta) share a live
// table and that the table is freed, and its entry dropped, once no
// sampler holds it.
func TestWeakTableCache(t *testing.T) {
	const n, theta = 1234, 0.77
	a := NewZipf(New(1), n, theta)
	b := NewZipf(New(2), n, theta)
	if a.t != b.t {
		t.Fatal("samplers of one (n, theta) built two tables")
	}
	if c := NewZipf(New(1), n, 0.78); c.t == a.t {
		t.Fatal("samplers of different theta share a table")
	}
	wp := weak.Make(a.t)
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
	a, b = nil, nil
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("table outlived every sampler")
	}
	key := zipfKey{n, math.Float64bits(theta)}
	for i := 0; cached(&zipfTables, key); i++ {
		if i == 200 {
			t.Fatal("cache entry not dropped after its table was freed")
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if z := NewZipf(New(1), n, theta); z.N() != n {
		t.Fatal("rebuild after eviction failed")
	}
}

func TestBetaCutsShared(t *testing.T) {
	tab := NewBetaCuts(New(11), 500, 0.25, 0.1)
	if NewBetaCuts(New(11), 500, 0.25, 0.1) != tab {
		t.Fatal("equal inputs built two tables")
	}
	if NewBetaCuts(New(12), 500, 0.25, 0.1) == tab {
		t.Fatal("different streams share a table")
	}
}

// TestWeakTableCacheConcurrent builds samplers of a few keys from many
// goroutines at once, as parallel sweep workers restoring clusters do:
// every sampler of a key must end up on one table.
func TestWeakTableCacheConcurrent(t *testing.T) {
	const workers, keys = 8, 3
	var wg sync.WaitGroup
	got := make([][keys]*zipfTable, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				got[w][k] = NewZipf(New(uint64(w)), 777+k, 1.1).t
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d built its own tables", w)
		}
	}
}
