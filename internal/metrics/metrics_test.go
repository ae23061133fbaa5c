package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestQuantileExactSmall(t *testing.T) {
	var q Quantile
	for _, v := range []float64{5, 1, 3, 2, 4} {
		q.Add(v)
	}
	if q.Count() != 5 {
		t.Fatalf("count = %d", q.Count())
	}
	if got := q.Value(0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := q.Value(1); got != 5 {
		t.Errorf("max = %v", got)
	}
	if got := q.Value(0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := q.Mean(); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	var q Quantile
	q.Add(0)
	q.Add(10)
	if got := q.Value(0.25); got != 2.5 {
		t.Errorf("p25 = %v, want 2.5", got)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var q Quantile
	if q.Value(0.5) != 0 || q.Mean() != 0 || q.Count() != 0 {
		t.Fatal("empty accumulator should return zeros")
	}
}

func TestQuantileAddAfterQuery(t *testing.T) {
	var q Quantile
	q.Add(10)
	_ = q.Value(0.5)
	q.Add(1) // must re-sort
	if got := q.Value(0); got != 1 {
		t.Fatalf("min after re-add = %v", got)
	}
}

func TestQuantileReset(t *testing.T) {
	var q Quantile
	q.Add(5)
	q.Reset()
	if q.Count() != 0 || q.Mean() != 0 {
		t.Fatal("reset did not clear")
	}
	q.Add(7)
	if q.Value(0.5) != 7 {
		t.Fatal("accumulator unusable after reset")
	}
}

func TestQuantileDuration(t *testing.T) {
	var q Quantile
	q.AddDuration(1500 * time.Microsecond)
	if got := q.Value(1); got != 1500 {
		t.Fatalf("duration in us = %v", got)
	}
}

// Property: Value is monotone in p and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		var clean []float64
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var q Quantile
		for _, v := range clean {
			q.Add(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := q.Value(p)
			if v < prev {
				return false
			}
			prev = v
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		return q.Value(0) == sorted[0] && q.Value(1) == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestP2ConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []float64{0.5, 0.9, 0.99} {
		est := NewP2(p)
		var exact Quantile
		for i := 0; i < 50_000; i++ {
			// Log-normal-ish latency distribution.
			v := math.Exp(rng.NormFloat64())
			est.Add(v)
			exact.Add(v)
		}
		want := exact.Value(p)
		got := est.Value()
		relErr := math.Abs(got-want) / want
		if relErr > 0.05 {
			t.Errorf("P2(p=%v) = %v vs exact %v (rel err %.3f)", p, got, want, relErr)
		}
	}
}

func TestP2SmallSampleCounts(t *testing.T) {
	est := NewP2(0.5)
	if est.Value() != 0 {
		t.Fatal("empty estimator should return 0")
	}
	est.Add(3)
	est.Add(1)
	if got := est.Value(); got != 1 && got != 3 {
		t.Fatalf("tiny-sample estimate = %v", got)
	}
	if est.Count() != 2 {
		t.Fatalf("count = %d", est.Count())
	}
}

func TestRateMeterWindows(t *testing.T) {
	m := NewRateMeter(time.Millisecond, 10*time.Millisecond)
	// 10 slots of 1000 bits = 1000 bits/ms = 1 Mb/s.
	for i := 0; i < 25; i++ {
		m.AddSlot(1000)
	}
	s := m.Series()
	if len(s) != 2 {
		t.Fatalf("windows = %d, want 2 (third incomplete)", len(s))
	}
	for _, p := range s {
		if p.Bps != 1e6 {
			t.Errorf("window rate = %v, want 1e6", p.Bps)
		}
	}
	if m.MeanBps() != 1e6 {
		t.Errorf("mean = %v", m.MeanBps())
	}
	if got := m.MeanBpsAfter(15 * time.Millisecond); got != 1e6 {
		t.Errorf("mean after = %v", got)
	}
	if got := m.MeanBpsAfter(time.Hour); got != 0 {
		t.Errorf("mean after end = %v", got)
	}
}

func TestRateMeterDefaultWindow(t *testing.T) {
	m := NewRateMeter(time.Millisecond, 0)
	for i := 0; i < 500; i++ {
		m.AddSlot(500)
	}
	if len(m.Series()) != 1 {
		t.Fatalf("default 500 ms window: %d windows", len(m.Series()))
	}
}

func TestDeadlineMeter(t *testing.T) {
	m := NewDeadlineMeter(time.Millisecond)
	if m.Deadline() != time.Millisecond {
		t.Fatalf("deadline = %v", m.Deadline())
	}
	if m.Observe(200 * time.Microsecond) {
		t.Fatal("under-budget slot reported as overrun")
	}
	if !m.Observe(3 * time.Millisecond) {
		t.Fatal("over-budget slot not reported")
	}
	m.Observe(time.Microsecond)
	s := m.Stats()
	if s.Slots != 3 || s.Overruns != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Worst != 3*time.Millisecond {
		t.Fatalf("worst = %v", s.Worst)
	}
	if s.P99us <= 0 {
		t.Fatalf("p99 = %v", s.P99us)
	}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestDeadlineMeterConcurrent(t *testing.T) {
	m := NewDeadlineMeter(time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Observe(time.Duration(i) * 3 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := m.Stats()
	if s.Slots != 8000 {
		t.Fatalf("slots = %d", s.Slots)
	}
	// Slots above 1 ms: i in (333, 1000) per goroutine.
	if s.Overruns != 8*666 {
		t.Fatalf("overruns = %d, want %d", s.Overruns, 8*666)
	}
	if s.Worst != 2997*time.Microsecond {
		t.Fatalf("worst = %v", s.Worst)
	}
}
