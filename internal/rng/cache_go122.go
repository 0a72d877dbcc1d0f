//go:build !go1.24

package rng

// weakCache before Go 1.24, which has no weak pointers: every get builds
// a fresh table, so each sampler owns its tables and they die with it.
// Sharing without weak pointers would need a strong cache, which keeps
// every table alive for the life of the process (see cache.go).
type weakCache[K comparable, V any] struct{}

func (c *weakCache[K, V]) get(_ K, build func() *V) *V { return build() }
