package wabi

import (
	"math/rand"
	"sync"
)

// stolenFuelBudget is what a fuel-theft fault leaves the guest: enough to
// enter the entry function, never enough to finish a slot's work, so the
// meter raises a genuine TrapFuelExhausted.
const stolenFuelBudget = 2

// ChaosConfig is a seeded schedule of plugin-plane faults — the wasm-layer
// counterpart of e2.FaultConfig. The zero value injects nothing. All
// probabilities are evaluated independently per Call in the order trap,
// fuel theft, corrupt; the same Seed over the same call sequence
// reproduces the same schedule, so supervisor and containment behaviour is
// testable without writing hostile bytecode for every failure mode.
type ChaosConfig struct {
	// Seed selects the deterministic schedule (0 behaves as 1).
	Seed int64

	// TrapProb aborts the call before the guest runs, surfacing an
	// unreachable trap — the injected analogue of a null deref or OOB
	// access anywhere in the plugin.
	TrapProb float64

	// FuelTheftProb strands the instance with stolenFuelBudget units so the
	// meter trips mid-entry: a runaway-computation fault without the cost of
	// actually looping. With metering disabled it degenerates to a forced
	// fuel-exhausted error.
	FuelTheftProb float64

	// CorruptProb lets the call complete and then mangles the output bytes,
	// so the fault is only catchable by the decode/validate layer above —
	// the "lying plugin" case.
	CorruptProb float64

	// ActivateAfter, when > 0, makes the schedule inert for the first N
	// calls. This builds sleeper candidates: plugins that behave during
	// shadow validation and turn hostile inside the probation window.
	ActivateAfter int
}

// ChaosStats counts injected faults by class.
type ChaosStats struct {
	Calls       uint64 `json:"calls"`
	Traps       uint64 `json:"traps"`
	FuelThefts  uint64 `json:"fuel_thefts"`
	Corruptions uint64 `json:"corruptions"`
}

// Total sums all injected faults.
func (s ChaosStats) Total() uint64 {
	return s.Traps + s.FuelThefts + s.Corruptions
}

// Chaos deterministically injects plugin faults from a seeded schedule.
// Hang one on Env.Chaos and every plugin sharing that Env — including all
// instances of a Pool — rolls the same schedule in call order.
type Chaos struct {
	cfg ChaosConfig

	mu    sync.Mutex
	rng   *rand.Rand
	stats ChaosStats
}

// chaosAction is one decided outcome for a Call.
type chaosAction int

const (
	chaosNone chaosAction = iota
	chaosForceTrap
	chaosStealFuel
	chaosCorruptOutput
)

// NewChaos builds an injector for the given schedule.
func NewChaos(cfg ChaosConfig) *Chaos {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Chaos{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// SetConfig replaces the fault schedule in place; counters and PRNG state
// are kept. This lets a test disarm or re-arm an injector already shared by
// live plugins — e.g. trap exactly once, then verify the replacement
// instance recovers cleanly.
func (c *Chaos) SetConfig(cfg ChaosConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg = cfg
}

// Stats returns the injected-fault counters so far.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// decide rolls the seeded schedule for one Call.
func (c *Chaos) decide() chaosAction {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Calls++
	if c.cfg.ActivateAfter > 0 && c.stats.Calls <= uint64(c.cfg.ActivateAfter) {
		return chaosNone
	}
	switch {
	case c.roll(c.cfg.TrapProb):
		c.stats.Traps++
		return chaosForceTrap
	case c.roll(c.cfg.FuelTheftProb):
		c.stats.FuelThefts++
		return chaosStealFuel
	case c.roll(c.cfg.CorruptProb):
		c.stats.Corruptions++
		return chaosCorruptOutput
	}
	return chaosNone
}

// roll consumes one PRNG draw when p > 0 so the schedule depends only on
// the configured fault classes and the call sequence.
func (c *Chaos) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return c.rng.Float64() < p
}

// corruptOutput mangles a successful call's result so only the decode layer
// above can catch it: a truncated tail for real payloads, a short garbage
// blob when the plugin returned nothing.
func corruptOutput(out []byte) []byte {
	if len(out) > 0 {
		return out[:len(out)-1]
	}
	return []byte{0xff, 0xff, 0xff}
}
