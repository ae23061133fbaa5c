package wabi

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"waran/internal/obs"
)

// ModuleCache is a content-addressed cache of compiled plugin modules:
// SHA-256 of the bytecode -> *Module. Pushing the same plugin onto 64 cells
// (or re-uploading an unchanged plugin over E2) then decodes, validates and
// flattens the bytecode exactly once, which is how the paper's hot-swap
// path amortizes compilation cost across a deployment.
//
// The cache is safe for concurrent use and deduplicates in-flight work:
// concurrent Load calls for the same bytecode share one compilation, with
// the losers blocking until the winner finishes (singleflight). Failed
// compilations are not cached — a corrupt upload does not poison the key.
type ModuleCache struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*cacheEntry
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	done chan struct{} // closed when compilation finishes
	mod  *Module
	err  error
}

// NewModuleCache creates an empty cache.
func NewModuleCache() *ModuleCache {
	return &ModuleCache{entries: make(map[[sha256.Size]byte]*cacheEntry)}
}

// Load returns the compiled module for bin, compiling it on first sight.
// Concurrent loads of identical bytecode compile once.
func (c *ModuleCache) Load(bin []byte) (*Module, error) {
	if len(bin) == 0 {
		return nil, fmt.Errorf("wabi: empty module bytecode")
	}
	key := sha256.Sum256(bin)

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.done
		return e.mod, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	e.mod, e.err = CompileWasm(bin)
	close(e.done)
	if e.err != nil {
		// Drop the failed entry so the error is not cached; identical bad
		// bytecode will fail identically anyway, and a hash collision with
		// good bytecode must not be wedged forever.
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	return e.mod, e.err
}

// Contains reports whether bytecode with this exact content is cached.
func (c *ModuleCache) Contains(bin []byte) bool {
	key := sha256.Sum256(bin)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return e.err == nil
	default:
		return false // still compiling
	}
}

// Len reports the number of cached modules (including in-flight ones).
func (c *ModuleCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CacheStats is the flat snapshot of a ModuleCache.
type CacheStats struct {
	Modules int    `json:"modules"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// TierPromotions is always 0: modules run the closure tier from their
	// first call, so nothing is promoted. Kept because bench/ reads it.
	TierPromotions uint64 `json:"tier_promotions"`
}

// Stats returns cache occupancy plus hits and misses since creation.
func (c *ModuleCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Modules: len(c.entries),
		Hits:    c.hits,
		Misses:  c.misses,
	}
}

// Register exposes the cache on reg under waran_wabi_module_cache_*.
func (c *ModuleCache) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.MustRegister("waran_wabi_module_cache", "content-addressed compiled-module cache", obs.Func{
		Kind: obs.KindUntyped,
		Collect: func() []obs.Sample {
			s := c.Stats()
			return []obs.Sample{
				{Suffix: "_modules", Value: float64(s.Modules)},
				{Suffix: "_hits_total", Value: float64(s.Hits)},
				{Suffix: "_misses_total", Value: float64(s.Misses)},
			}
		},
		JSON: func() any { return c.Stats() },
	}, labels...)
}

// String implements fmt.Stringer.
func (c *ModuleCache) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("wabi.ModuleCache{modules=%d hits=%d misses=%d}", len(c.entries), c.hits, c.misses)
}
