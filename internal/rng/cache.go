//go:build go1.24

package rng

import (
	"runtime"
	"sync"
	"weak"
)

// weakCache shares immutable tables by key among the samplers that use
// them. It holds weak pointers only: a table lives exactly as long as some
// sampler references it, and a cleanup drops its entry once it is freed.
// A strong process-wide cache would keep every table ever built alive for
// the life of the process (a daemon, a test binary), long after the last
// cluster using it is gone.
type weakCache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]weak.Pointer[V]
}

// get returns the live table for k, building it with build on a miss.
// Builds run outside the lock; of two concurrent builds of one key, the
// first stored wins and the other is dropped.
func (c *weakCache[K, V]) get(k K, build func() *V) *V {
	c.mu.Lock()
	v := c.m[k].Value()
	c.mu.Unlock()
	if v != nil {
		return v
	}
	nv := build()
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.m[k].Value(); v != nil {
		return v
	}
	if c.m == nil {
		c.m = make(map[K]weak.Pointer[V])
	}
	wp := weak.Make(nv)
	c.m[k] = wp
	runtime.AddCleanup(nv, func(wp weak.Pointer[V]) {
		c.mu.Lock()
		defer c.mu.Unlock()
		// A later get may already have stored a fresh table under k.
		if c.m[k] == wp {
			delete(c.m, k)
		}
	}, wp)
	return nv
}
