package ric

import (
	"fmt"
	"time"

	"waran/internal/e2"
	"waran/internal/obs/flight"
	"waran/internal/obs/trace"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

// DefaultShards is the association shard count when Config.Shards is zero:
// enough domains that a thousand associations spread their fan-in without
// contending, small enough that a single-association test still behaves
// exactly like the unsharded RIC did.
const DefaultShards = 8

// MaxShards bounds Config.Shards.
const MaxShards = 256

// DefaultMaxAssocPerShard is the per-shard association goroutine budget
// when Config.MaxAssocPerShard is zero.
const DefaultMaxAssocPerShard = 512

// NoKPMHistory disables the KPM store entirely (Config.KPMHistory): at
// thousands of associations the store's lock is measurable fan-in overhead
// a pure throughput deployment can refuse to pay.
const NoKPMHistory = -1

// DefaultBatchFlushInterval bounds how long a partial indication window may
// wait before it is flushed when BatchConfig.FlushInterval is zero.
const DefaultBatchFlushInterval = 10 * time.Millisecond

// BatchConfig configures agent-side windowed KPM indication batching
// (e2.IndicationBatch). The zero value disables batching, which also keeps
// the wire format byte-identical to the pre-batch protocol.
type BatchConfig struct {
	// Window is how many per-slot indications coalesce into one batched
	// frame; 0 or 1 disables batching.
	Window int
	// FlushInterval bounds the wait of the oldest buffered indication
	// before a partial window is flushed (default
	// DefaultBatchFlushInterval). The deadline is checked from the slot
	// loop's Tick, so flush latency is quantized to the slot cadence.
	FlushInterval time.Duration
}

func (b BatchConfig) enabled() bool { return b.Window > 1 }

func (b BatchConfig) withDefaults() BatchConfig {
	if b.FlushInterval <= 0 {
		b.FlushInterval = DefaultBatchFlushInterval
	}
	return b
}

// Validate checks the batch knobs.
func (b BatchConfig) Validate() error {
	if b.Window < 0 {
		return fmt.Errorf("ric: negative batch window %d", b.Window)
	}
	if b.Window > e2.MaxBatchIndications {
		return fmt.Errorf("ric: batch window %d exceeds frame limit %d", b.Window, e2.MaxBatchIndications)
	}
	if b.FlushInterval < 0 {
		return fmt.Errorf("ric: negative batch flush interval %v", b.FlushInterval)
	}
	return nil
}

// Config is the one validated construction surface of a RIC. The zero
// value is a working default configuration; New applies defaults after
// Validate, so a caller never pokes fields post-construction.
type Config struct {
	// ReportPeriodMs is the indication cadence requested at subscription
	// (default 100 ms).
	ReportPeriodMs uint32
	// HeartbeatInterval, when > 0, makes served associations send
	// heartbeats at this cadence and track liveness; zero disables.
	HeartbeatInterval time.Duration
	// MissedHeartbeatLimit is how many silent heartbeat intervals kill an
	// association (default DefaultMissedHeartbeatLimit).
	MissedHeartbeatLimit int

	// Shards is the number of association domains (default DefaultShards).
	// Each association hashes onto one shard carrying its own goroutine
	// budget, counters, and obs instruments, so indication fan-in never
	// serializes on a global lock.
	Shards int
	// MaxAssocPerShard is the per-shard association goroutine budget
	// (default DefaultMaxAssocPerShard); an association arriving at a full
	// shard spills onto one with room, and is refused with TypeBusy when
	// every shard is full.
	MaxAssocPerShard int
	// DisableBatching stops the RIC from advertising batch capability at
	// subscription; agents then keep sending per-slot indications.
	DisableBatching bool
	// KPMHistory sizes the per-cell KPM ring (0 = DefaultKPMHistory,
	// NoKPMHistory = no store at all).
	KPMHistory int
	// Overload tunes the guards every association passes (see overload.go):
	// admission token buckets with TypeBusy refusals, bounded
	// per-association indication queues with drop-oldest shedding, the
	// brownout state machine, shard spill-over, and per-xApp breakers. Nil
	// means the zero OverloadConfig, i.e. the defaults; RIC.Config() always
	// returns it resolved.
	Overload *OverloadConfig

	// Assoc, when set, receives association-resilience counters.
	Assoc *AssocMetrics
	// OnFault observes xApp failures.
	OnFault func(xapp string, err error)
	// OnLog receives xApp log lines.
	OnLog func(xapp, msg string)
	// Tracer, when non-nil, enables trace negotiation and RIC-plane spans.
	Tracer *trace.Tracer
	// Flight, when non-nil, journals RIC-plane state transitions — brownout
	// shifts, shed decisions, admission refusals, per-xApp breaker trips —
	// into the flight recorder's incident journal. Nil keeps every journal
	// site a single pointer compare.
	Flight *flight.Recorder
	// Profile, when non-nil, attaches the per-function wasm profiler to
	// every xApp installed afterwards.
	Profile *wasm.Profile
}

// Validate rejects configurations New would have to guess about.
func (c Config) Validate() error {
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("ric: shard count %d outside [0, %d]", c.Shards, MaxShards)
	}
	if c.MaxAssocPerShard < 0 {
		return fmt.Errorf("ric: negative association budget %d", c.MaxAssocPerShard)
	}
	if c.MissedHeartbeatLimit < 0 {
		return fmt.Errorf("ric: negative missed-heartbeat limit %d", c.MissedHeartbeatLimit)
	}
	if c.HeartbeatInterval < 0 {
		return fmt.Errorf("ric: negative heartbeat interval %v", c.HeartbeatInterval)
	}
	if c.KPMHistory < NoKPMHistory {
		return fmt.Errorf("ric: KPM history %d (use %d to disable)", c.KPMHistory, NoKPMHistory)
	}
	return c.Overload.orZero().Validate()
}

func (c Config) withDefaults() Config {
	if c.ReportPeriodMs == 0 {
		c.ReportPeriodMs = 100
	}
	if c.MissedHeartbeatLimit == 0 {
		c.MissedHeartbeatLimit = DefaultMissedHeartbeatLimit
	}
	if c.Shards == 0 {
		c.Shards = DefaultShards
	}
	if c.MaxAssocPerShard == 0 {
		c.MaxAssocPerShard = DefaultMaxAssocPerShard
	}
	return c
}

// New creates a RIC from a validated configuration.
func New(cfg Config) (*RIC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r := &RIC{
		cfg:     cfg,
		Modules: wabi.NewModuleCache(),
	}
	if cfg.KPMHistory != NoKPMHistory {
		r.KPM = NewKPMStore(cfg.KPMHistory)
	}
	r.storeXApps(nil, map[string]*XApp{})
	r.shards = make([]*shard, cfg.Shards)
	for i := range r.shards {
		r.shards[i] = newShard(i, cfg.MaxAssocPerShard)
	}
	ov := cfg.Overload.orZero().withDefaults()
	r.cfg.Overload = &ov
	r.ov = newOverload(ov, cfg.Shards, cfg.Tracer, cfg.Flight)
	return r, nil
}

// MustNew is New for static configurations known valid at compile time
// (tests, examples); it panics on a validation error.
func MustNew(cfg Config) *RIC {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
