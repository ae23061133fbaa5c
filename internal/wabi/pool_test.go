package wabi

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolReusesInstances(t *testing.T) {
	mod, err := CompileWAT(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 4)
	a, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(a)
	b, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("idle instance not reused")
	}
	pool.Put(b)
	if st := pool.Stats(); st.Created != 1 || st.Idle != 1 {
		t.Fatalf("stats = %d/%d", st.Created, st.Idle)
	}
}

// TestPoolCallOutputIsTheCallers: Pool.Call returns the instance to the
// pool, so its result must survive the next call on that same instance.
func TestPoolCallOutputIsTheCallers(t *testing.T) {
	mod, err := CompileWAT(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 1)
	first, err := pool.Call("run", []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := pool.Call("run", []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Created != 1 {
		t.Fatalf("%d instances created, want both calls on one", st.Created)
	}
	if string(first) != "first" || string(second) != "second" {
		t.Fatalf("outputs %q, %q; want \"first\", \"second\"", first, second)
	}
}

func TestPoolConcurrentCalls(t *testing.T) {
	mod, err := CompileWAT(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 4)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			msg := []byte{byte(g), byte(g + 1), byte(g + 2)}
			for i := 0; i < 50; i++ {
				out, err := pool.Call("run", msg)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if string(out) != string(msg) {
					t.Errorf("goroutine %d: cross-talk: %v != %v", g, out, msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := pool.Stats()
	created, idle := st.Created, st.Idle
	if created > 4 {
		t.Fatalf("pool created %d instances, max 4", created)
	}
	if idle != created {
		t.Fatalf("leaked instances: created=%d idle=%d", created, idle)
	}
}

func TestPoolBlocksWhenExhausted(t *testing.T) {
	mod, err := CompileWAT(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 1)
	only, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *Plugin)
	go func() {
		p, _ := pool.Get()
		got <- p
	}()
	select {
	case <-got:
		t.Fatal("Get returned despite exhausted pool")
	default:
	}
	pool.Put(only)
	if p := <-got; p != only {
		t.Fatal("waiter did not receive the returned instance")
	}
}

// TestPoolStressPastExhaustion hammers Get/Put from many more goroutines
// than the pool holds instances, so every goroutine repeatedly takes the
// waiter path. Run under -race this is the pool's concurrency audit; the
// invariants checked at the end catch leaked or double-released instances.
func TestPoolStressPastExhaustion(t *testing.T) {
	mod, err := CompileWAT(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	const max = 3
	pool := NewPool(mod, Policy{}, Env{}, max)
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 48; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			msg := []byte{byte(g)}
			for i := 0; i < 60; i++ {
				pl, err := pool.Get()
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if n := inFlight.Add(1); n > peak.Load() {
					peak.Store(n)
				}
				out, err := pl.Call("run", msg)
				if err != nil || string(out) != string(msg) {
					t.Errorf("goroutine %d: out=%q err=%v", g, out, err)
				}
				inFlight.Add(-1)
				pool.Put(pl)
			}
		}(g)
	}
	wg.Wait()
	st := pool.Stats()
	created, idle := st.Created, st.Idle
	if created > max {
		t.Fatalf("created %d instances, max %d", created, max)
	}
	if idle != created {
		t.Fatalf("leaked instances: created=%d idle=%d", created, idle)
	}
	if p := peak.Load(); p > max {
		t.Fatalf("%d instances checked out concurrently, max %d", p, max)
	}
}

// TestPoolCreateFailureWakesWaiter is the regression test for the stranded
// waiter: a Get that queues while another Get holds the last creation slot
// must be woken when that creation fails, so it can retry the freed slot
// instead of blocking until some unrelated Put.
func TestPoolCreateFailureWakesWaiter(t *testing.T) {
	mod, err := CompileWAT(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 1)
	entered := make(chan struct{})
	release := make(chan struct{})
	var attempts atomic.Int64
	realNew := pool.newFn
	pool.newFn = func() (*Plugin, error) {
		if attempts.Add(1) == 1 {
			close(entered)
			<-release
			return nil, errors.New("injected create failure")
		}
		return realNew()
	}

	failErr := make(chan error, 1)
	go func() {
		_, err := pool.Get()
		failErr <- err
	}()
	<-entered // first Get now owns the only creation slot

	got := make(chan *Plugin, 1)
	go func() {
		pl, err := pool.Get()
		if err != nil {
			t.Errorf("waiter Get: %v", err)
		}
		got <- pl
	}()
	// Wait for the second Get to be queued as a waiter.
	for deadline := time.Now().Add(5 * time.Second); ; {
		pool.mu.Lock()
		n := len(pool.waiters)
		pool.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second Get never queued as waiter")
		}
		time.Sleep(time.Millisecond)
	}

	close(release) // first creation fails with a waiter queued
	if err := <-failErr; err == nil {
		t.Fatal("failed creation did not surface its error")
	}
	select {
	case pl := <-got:
		if pl == nil {
			t.Fatal("waiter received nil instance")
		}
		pool.Put(pl)
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded after create failure")
	}
	if st := pool.Stats(); st.Created != 1 || st.Idle != 1 {
		t.Fatalf("stats = %d/%d after recovery, want 1/1", st.Created, st.Idle)
	}
}

// TestPoolAllCreationsFailNobodyHangs: with every instantiation failing,
// concurrent Gets past exhaustion must all return errors — the failure
// wake-up chains from waiter to waiter rather than stranding the tail.
func TestPoolAllCreationsFailNobodyHangs(t *testing.T) {
	mod, err := CompileWAT(echoWAT)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 1)
	pool.newFn = func() (*Plugin, error) {
		time.Sleep(time.Millisecond) // widen the window where waiters queue
		return nil, errors.New("always fails")
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			_, err := pool.Get()
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("Get succeeded with failing creator")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Get %d hung", i)
		}
	}
	if st := pool.Stats(); st.Created != 0 || st.Idle != 0 {
		t.Fatalf("stats = %d/%d, want 0/0", st.Created, st.Idle)
	}
}

func TestPoolBadModulePropagatesError(t *testing.T) {
	mod, err := CompileWAT(`(module (func (export "run") (result i32) i32.const 0))`) // no memory
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(mod, Policy{}, Env{}, 2)
	if _, err := pool.Get(); err == nil {
		t.Fatal("instantiation failure swallowed")
	}
	// The failed slot is released: the pool can still try again.
	if st := pool.Stats(); st.Created != 0 {
		t.Fatalf("created = %d after failure", st.Created)
	}
}
