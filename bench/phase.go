package main

import (
	"sync"
	"time"
)

// phase collects one timed closed-loop phase: a per-operation time sample
// (microseconds) for every completed operation, cut into equal segments.
// The lock lets a completion callback on a program goroutine add samples
// while the driver goroutine moves the segment boundary.
type phase struct {
	mu       sync.Mutex
	samples  []float64
	bounds   []int           // index into samples where each segment starts
	segOps   []float64       // operations completed in each segment
	segWall  []time.Duration // wall time of each segment
	segStart time.Time

	attempted, failed uint64
	failure           string
}

func newPhase(segs int) *phase {
	return &phase{samples: make([]float64, 0, 1<<16), segOps: make([]float64, segs)}
}

func (p *phase) startSegment() {
	p.mu.Lock()
	p.bounds = append(p.bounds, len(p.samples))
	p.segStart = time.Now()
	p.mu.Unlock()
}

func (p *phase) endSegment() {
	p.mu.Lock()
	p.segWall = append(p.segWall, time.Since(p.segStart))
	p.mu.Unlock()
}

// add records one time sample in the current segment and counts the ops
// operations it completed (a group slot completes one per cell).
func (p *phase) add(us float64, ops int) {
	p.mu.Lock()
	p.samples = append(p.samples, us)
	if seg := len(p.bounds) - 1; seg >= 0 && seg < len(p.segOps) {
		p.segOps[seg] += float64(ops)
	}
	p.mu.Unlock()
}

// ops is the number of operations completed over all segments.
func (p *phase) ops() float64 {
	var n float64
	for _, v := range p.segOps {
		n += v
	}
	return n
}

// rate is operations per wall second: the median over segments.
func (p *phase) rate() float64 {
	var rates []float64
	for i, w := range p.segWall {
		if w > 0 {
			rates = append(rates, p.segOps[i]/w.Seconds())
		}
	}
	return median(rates)
}

func (p *phase) latency() segmentStats { return summariseSegments(p.samples, p.bounds) }

// mergePhases folds the phases of several drivers that ran the same segment
// schedule into one: segment i holds every driver's segment-i samples. A
// driver that failed part-way has fewer segments; the ones it lacks are
// simply absent from the merge.
func mergePhases(parts []*phase) *phase {
	if len(parts) == 1 {
		return parts[0]
	}
	segs := len(parts[0].segOps)
	out := newPhase(segs)
	for seg := 0; seg < segs; seg++ {
		out.bounds = append(out.bounds, len(out.samples))
		var wall time.Duration
		for _, p := range parts {
			if seg >= len(p.segWall) {
				continue
			}
			lo, hi := p.bounds[seg], len(p.samples)
			if seg+1 < len(p.bounds) {
				hi = p.bounds[seg+1]
			}
			out.samples = append(out.samples, p.samples[lo:hi]...)
			out.segOps[seg] += p.segOps[seg]
			if p.segWall[seg] > wall {
				wall = p.segWall[seg]
			}
		}
		out.segWall = append(out.segWall, wall)
	}
	for _, p := range parts {
		out.attempted += p.attempted
		out.failed += p.failed
		if out.failure == "" {
			out.failure = p.failure
		}
	}
	return out
}
