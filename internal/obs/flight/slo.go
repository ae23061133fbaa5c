package flight

import (
	"fmt"
	"sync"
	"time"
)

// SLO defines one ratio service-level objective: Bad and Total are
// cumulative counters (shed indications vs offered, slot overruns vs slots)
// and Objective is the allowed bad fraction. The burn rate over a window is
// (Δbad/Δtotal)/Objective, so burn 1.0 consumes exactly the error budget and
// burn 10 means the budget burns 10× too fast.
//
// One SLO feeds one Detector; the detector does the windowing.
type SLO struct {
	// Name identifies the SLO in detector states, events and bundles.
	Name string
	// Objective is the allowed bad fraction (e.g. 0.001 = 0.1% of
	// indications may shed).
	Objective float64
	// Bad and Total are the cumulative sources. Both must be monotonic.
	Bad, Total func() uint64
}

func (s SLO) validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("flight: SLO name must not be empty")
	case s.Bad == nil || s.Total == nil:
		return fmt.Errorf("flight: SLO %s needs both Bad and Total", s.Name)
	case s.Objective <= 0 || s.Objective > 1:
		return fmt.Errorf("flight: SLO %s objective must be in (0,1]", s.Name)
	}
	return nil
}

// DetectorConfig tunes one multi-window burn-rate detector. The detector
// fires only when BOTH windows exceed Burn: the short window makes it
// respond fast, the long window keeps a brief spike from paging. Clearing
// uses hysteresis: both windows must drop below half of Burn.
type DetectorConfig struct {
	// Short and Long are the two look-back windows. Defaults: 5s / 30s.
	Short, Long time.Duration
	// Burn is the firing threshold (default 10: the error budget is
	// burning 10× too fast).
	Burn float64
}

func (c *DetectorConfig) withDefaults() {
	if c.Short <= 0 {
		c.Short = 5 * time.Second
	}
	if c.Long <= 0 {
		c.Long = 30 * time.Second
	}
	if c.Long < c.Short {
		c.Long = c.Short
	}
	if c.Burn <= 0 {
		c.Burn = 10
	}
}

// detectorSample is one Eval observation of the SLO's sources.
type detectorSample struct {
	at         time.Time
	bad, total uint64
}

// detectorSamples bounds each detector's memory: at the default 1 s Eval
// cadence this covers windows beyond four minutes.
const detectorSamples = 256

// Detector is one SLO's multi-window burn-rate evaluator. It keeps a
// bounded ring of source samples appended by Eval and derives the two
// window burn rates by scanning back to each window's horizon.
type Detector struct {
	slo SLO
	cfg DetectorConfig

	mu      sync.Mutex
	ring    [detectorSamples]detectorSample
	n       int // total samples ever appended
	firing  bool
	fires   uint64
	burnS   float64
	burnL   float64
	shiftNs int64 // last fire/clear transition
}

// DetectorState is one detector's externally visible state, served by
// /debug/flight and embedded in bundles.
type DetectorState struct {
	Name      string  `json:"name"`
	Firing    bool    `json:"firing"`
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	Threshold float64 `json:"threshold"`
	Fires     uint64  `json:"fires"`
	// LastShiftNs is the unix-nanos of the last fire or clear transition
	// (0 = never fired).
	LastShiftNs int64 `json:"last_shift_ns,omitempty"`
}

// State returns the detector's current state.
func (d *Detector) State() DetectorState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DetectorState{
		Name: d.slo.Name, Firing: d.firing,
		BurnShort: d.burnS, BurnLong: d.burnL,
		Threshold: d.cfg.Burn, Fires: d.fires, LastShiftNs: d.shiftNs,
	}
}

// sample appends one observation of the SLO's sources.
func (d *Detector) sample(now time.Time) {
	d.ring[d.n%detectorSamples] = detectorSample{at: now, bad: d.slo.Bad(), total: d.slo.Total()}
	d.n++
}

// burn computes the burn rate over the window ending at the newest sample.
func (d *Detector) burn(window time.Duration) float64 {
	if d.n == 0 {
		return 0
	}
	newest := d.ring[(d.n-1)%detectorSamples]
	horizon := newest.at.Add(-window)
	// Walk back to the oldest retained sample at or after the horizon.
	oldest := newest
	for i := d.n - 2; i >= max(d.n-detectorSamples, 0); i-- {
		s := d.ring[i%detectorSamples]
		if s.at.Before(horizon) {
			break
		}
		oldest = s
	}
	dTotal := newest.total - oldest.total
	if dTotal == 0 {
		return 0
	}
	return (float64(newest.bad-oldest.bad) / float64(dTotal)) / d.slo.Objective
}

// eval appends a sample, recomputes both windows and returns the
// fired/cleared edge (0 = no transition, +1 = fired, -1 = cleared).
func (d *Detector) eval(now time.Time) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sample(now)
	d.burnS = d.burn(d.cfg.Short)
	d.burnL = d.burn(d.cfg.Long)
	switch {
	case !d.firing && d.burnS >= d.cfg.Burn && d.burnL >= d.cfg.Burn:
		d.firing = true
		d.fires++
		d.shiftNs = now.UnixNano()
		return +1
	case d.firing && d.burnS < d.cfg.Burn/2 && d.burnL < d.cfg.Burn/2:
		d.firing = false
		d.shiftNs = now.UnixNano()
		return -1
	}
	return 0
}

// DetectorSet owns a process's detectors and journals their transitions
// into the recorder (EvDetectorFire is typically a trigger class, so a fire
// kicks off a bundle capture).
type DetectorSet struct {
	rec *Recorder

	mu sync.Mutex
	ds []*Detector
}

// NewDetectorSet returns an empty set journaling into rec (which may be
// nil: detectors still evaluate, transitions just go unjournaled).
func NewDetectorSet(rec *Recorder) *DetectorSet {
	return &DetectorSet{rec: rec}
}

// Add registers one SLO with its detector config and returns the detector.
func (s *DetectorSet) Add(slo SLO, cfg DetectorConfig) (*Detector, error) {
	if err := slo.validate(); err != nil {
		return nil, err
	}
	cfg.withDefaults()
	d := &Detector{slo: slo, cfg: cfg}
	s.mu.Lock()
	s.ds = append(s.ds, d)
	s.mu.Unlock()
	return d, nil
}

// MustAdd is Add, panicking on error — a bad SLO definition is a wiring
// bug.
func (s *DetectorSet) MustAdd(slo SLO, cfg DetectorConfig) *Detector {
	d, err := s.Add(slo, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// detectors snapshots the detector list without holding the lock during
// evaluation.
func (s *DetectorSet) detectors() []*Detector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Detector(nil), s.ds...)
}

// Eval samples every detector at now, journaling fire/clear transitions.
// Callers drive the cadence: experiments call it from their tick loop (so
// detector behavior is deterministic under a virtual clock), binaries from
// Run's ticker.
func (s *DetectorSet) Eval(now time.Time) {
	for _, d := range s.detectors() {
		switch d.eval(now) {
		case +1:
			st := d.State()
			s.rec.Record(Event{
				Class: EvDetectorFire, Plane: PlaneFlight, TimeNs: now.UnixNano(),
				Detail: d.slo.Name, Value: st.BurnShort,
			})
		case -1:
			s.rec.Record(Event{
				Class: EvDetectorClear, Plane: PlaneFlight, TimeNs: now.UnixNano(),
				Detail: d.slo.Name,
			})
		}
	}
}

// States returns every detector's current state, in Add order.
func (s *DetectorSet) States() []DetectorState {
	ds := s.detectors()
	out := make([]DetectorState, 0, len(ds))
	for _, d := range ds {
		out = append(out, d.State())
	}
	return out
}

// Run evaluates the set every interval until stop closes. Binaries use
// this; experiments call Eval from their own loop instead.
func (s *DetectorSet) Run(stop <-chan struct{}, every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			s.Eval(now)
		}
	}
}
