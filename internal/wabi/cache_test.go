package wabi

import (
	"strings"
	"sync"
	"testing"

	"waran/internal/wat"
)

func echoBinary(t *testing.T) []byte {
	t.Helper()
	bin, err := wat.CompileToBinary(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestModuleCacheCompilesOnce(t *testing.T) {
	bin := echoBinary(t)
	c := NewModuleCache()
	a, err := c.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh copy of the same bytes must hit: the cache is keyed by
	// content, not by slice identity.
	b, err := c.Load(append([]byte(nil), bin...))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical bytecode compiled twice")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if !c.Contains(bin) {
		t.Fatal("Contains = false for cached bytecode")
	}
}

func TestModuleCacheConcurrentLoadSingleflight(t *testing.T) {
	bin := echoBinary(t)
	c := NewModuleCache()
	const n = 32
	mods := make([]*Module, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := c.Load(bin)
			if err != nil {
				t.Error(err)
				return
			}
			mods[i] = m
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("concurrent loads compiled %d times, want 1", st.Misses)
	}
	for i := 1; i < n; i++ {
		if mods[i] != mods[0] {
			t.Fatalf("goroutine %d got a different module", i)
		}
	}
}

func TestModuleCacheDoesNotCacheFailures(t *testing.T) {
	c := NewModuleCache()
	bad := []byte("\x00asm garbage that is not wasm")
	if _, err := c.Load(bad); err == nil {
		t.Fatal("garbage accepted")
	}
	if c.Len() != 0 {
		t.Fatalf("failed compile left %d entries", c.Len())
	}
	if _, err := c.Load(bad); err == nil {
		t.Fatal("garbage accepted on retry")
	}
	if _, err := c.Load(nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty bytecode: %v", err)
	}
}

func TestModuleCacheDistinctBytecodeDistinctEntries(t *testing.T) {
	c := NewModuleCache()
	binA := echoBinary(t)
	binB, err := wat.CompileToBinary(`(module (memory (export "memory") 1)
	  (func (export "run") (result i32) i32.const 0))`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Load(binA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Load(binB)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct bytecode shared a cache entry")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}
