// Package metrics provides the measurement accumulators the experiment
// harness uses: exact and streaming (P²) quantile estimation standing in
// for the Boost Accumulators the paper uses for Fig. 5d, plus windowed rate
// meters for bitrate-over-time plots (Fig. 5a/5b).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Quantile is an exact quantile accumulator: it stores every sample. Use it
// when the sample count is bounded (one entry per scheduler invocation).
type Quantile struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add records one sample.
func (q *Quantile) Add(v float64) {
	q.samples = append(q.samples, v)
	q.sum += v
	q.sorted = false
}

// AddDuration records a duration in microseconds, the unit of Fig. 5d.
func (q *Quantile) AddDuration(d time.Duration) {
	q.Add(float64(d.Nanoseconds()) / 1e3)
}

// Count returns the number of recorded samples.
func (q *Quantile) Count() int { return len(q.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (q *Quantile) Mean() float64 {
	if len(q.samples) == 0 {
		return 0
	}
	return q.sum / float64(len(q.samples))
}

// Value returns the p-quantile (p in [0,1]) using nearest-rank
// interpolation, or 0 with no samples.
func (q *Quantile) Value(p float64) float64 {
	if len(q.samples) == 0 {
		return 0
	}
	if !q.sorted {
		sort.Float64s(q.samples)
		q.sorted = true
	}
	if p <= 0 {
		return q.samples[0]
	}
	if p >= 1 {
		return q.samples[len(q.samples)-1]
	}
	pos := p * float64(len(q.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return q.samples[lo]
	}
	frac := pos - float64(lo)
	return q.samples[lo]*(1-frac) + q.samples[hi]*frac
}

// Max returns the largest sample.
func (q *Quantile) Max() float64 { return q.Value(1) }

// Min returns the smallest sample.
func (q *Quantile) Min() float64 { return q.Value(0) }

// Reset discards all samples.
func (q *Quantile) Reset() {
	q.samples = q.samples[:0]
	q.sum = 0
	q.sorted = false
}

// String summarises the distribution.
func (q *Quantile) String() string {
	return fmt.Sprintf("n=%d p50=%.1f p99=%.1f max=%.1f", q.Count(), q.Value(0.5), q.Value(0.99), q.Max())
}

// P2 is the Jain & Chlamtac P² streaming estimator for one quantile: O(1)
// memory regardless of stream length. Used where the exact accumulator
// would be too heavy (long-running gNB processes).
type P2 struct {
	p     float64
	n     int
	q     [5]float64 // marker heights
	pos   [5]float64 // marker positions
	want  [5]float64 // desired positions
	dWant [5]float64 // desired position increments
	init  []float64
}

// NewP2 creates an estimator for the p-quantile (0 < p < 1).
func NewP2(p float64) *P2 {
	e := &P2{p: p}
	e.dWant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add records one sample.
func (e *P2) Add(v float64) {
	if e.n < 5 {
		e.init = append(e.init, v)
		e.n++
		if e.n == 5 {
			sort.Float64s(e.init)
			for i := 0; i < 5; i++ {
				e.q[i] = e.init[i]
				e.pos[i] = float64(i + 1)
			}
			e.want = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}
	e.n++
	// Find cell k containing v and update extreme markers.
	var k int
	switch {
	case v < e.q[0]:
		e.q[0] = v
		k = 0
	case v >= e.q[4]:
		e.q[4] = v
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if v < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.want[i] += e.dWant[i]
	}
	// Adjust interior markers with the parabolic formula.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := math.Copysign(1, d)
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

func (e *P2) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *P2) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate.
func (e *P2) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		tmp := append([]float64(nil), e.init...)
		sort.Float64s(tmp)
		ix := int(e.p * float64(len(tmp)-1))
		return tmp[ix]
	}
	return e.q[2]
}

// Count returns the number of samples seen.
func (e *P2) Count() int { return e.n }

// RateMeter turns per-slot bit deliveries into a bitrate time series with a
// configurable averaging window, matching the paper's Mb/s-over-seconds
// plots.
type RateMeter struct {
	slotDur time.Duration
	window  time.Duration
	current int64 // bits in the open window
	inWin   time.Duration
	series  []RatePoint
}

// RatePoint is one averaged sample of a rate series.
type RatePoint struct {
	Time time.Duration
	Bps  float64
}

// NewRateMeter creates a meter averaging over window (default 500 ms).
func NewRateMeter(slotDur, window time.Duration) *RateMeter {
	if window == 0 {
		window = 500 * time.Millisecond
	}
	return &RateMeter{slotDur: slotDur, window: window}
}

// AddSlot records the bits delivered in one slot.
func (r *RateMeter) AddSlot(bits int64) {
	r.current += bits
	r.inWin += r.slotDur
	if r.inWin >= r.window {
		t := time.Duration(len(r.series)+1) * r.window
		r.series = append(r.series, RatePoint{
			Time: t,
			Bps:  float64(r.current) / r.inWin.Seconds(),
		})
		r.current = 0
		r.inWin = 0
	}
}

// Flush closes the open partial window, if any, emitting it as a final
// RatePoint averaged over the time actually accumulated. Without this,
// short runs silently drop up to one window of delivered bits and bias
// MeanBps. Call once, after the last AddSlot.
func (r *RateMeter) Flush() {
	if r.inWin <= 0 {
		return
	}
	t := time.Duration(len(r.series))*r.window + r.inWin
	r.series = append(r.series, RatePoint{
		Time: t,
		Bps:  float64(r.current) / r.inWin.Seconds(),
	})
	r.current = 0
	r.inWin = 0
}

// Series returns the completed windows so far.
func (r *RateMeter) Series() []RatePoint { return r.series }

// MeanBps averages the entire series.
func (r *RateMeter) MeanBps() float64 {
	if len(r.series) == 0 {
		return 0
	}
	var s float64
	for _, p := range r.series {
		s += p.Bps
	}
	return s / float64(len(r.series))
}

// MeanBpsAfter averages the series points strictly after t, useful for
// skipping warm-up transients.
func (r *RateMeter) MeanBpsAfter(t time.Duration) float64 {
	var s float64
	n := 0
	for _, p := range r.series {
		if p.Time > t {
			s += p.Bps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// DeadlineMeter tracks per-slot execution time against a hard deadline (the
// paper's 1 ms slot budget, §4A/§5). It is safe for concurrent use — the
// cell-group slot engine feeds it from its worker goroutines — and keeps
// O(1) state: counts, the worst observation, and a streaming P99.
type DeadlineMeter struct {
	mu       sync.Mutex
	deadline time.Duration
	slots    uint64
	overruns uint64
	worst    time.Duration
	p99      *P2 // microseconds
}

// NewDeadlineMeter creates a meter for the given per-slot deadline.
func NewDeadlineMeter(deadline time.Duration) *DeadlineMeter {
	return &DeadlineMeter{deadline: deadline, p99: NewP2(0.99)}
}

// Deadline returns the configured budget.
func (m *DeadlineMeter) Deadline() time.Duration { return m.deadline }

// Observe records one slot's execution time and reports whether it overran
// the deadline.
func (m *DeadlineMeter) Observe(d time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slots++
	m.p99.Add(float64(d.Nanoseconds()) / 1e3)
	if d > m.worst {
		m.worst = d
	}
	if m.deadline > 0 && d > m.deadline {
		m.overruns++
		return true
	}
	return false
}

// DeadlineStats is the flat snapshot of a DeadlineMeter. Durations
// marshal as nanoseconds, matching time.Duration's JSON encoding.
type DeadlineStats struct {
	Deadline time.Duration `json:"deadline_ns"`
	Slots    uint64        `json:"slots"`
	Overruns uint64        `json:"overruns"`
	Worst    time.Duration `json:"worst_ns"`
	P99us    float64       `json:"p99_us"`
}

// Stats returns current accounting.
func (m *DeadlineMeter) Stats() DeadlineStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return DeadlineStats{
		Deadline: m.deadline,
		Slots:    m.slots,
		Overruns: m.overruns,
		Worst:    m.worst,
		P99us:    m.p99.Value(),
	}
}

// String summarises the meter.
func (m *DeadlineMeter) String() string {
	s := m.Stats()
	return fmt.Sprintf("slots=%d overruns=%d worst=%v p99=%.1fus deadline=%v",
		s.Slots, s.Overruns, s.Worst, s.P99us, s.Deadline)
}
