// Command gnb runs a WA-RAN gNB: one or more slot-clocked sliced MAC cells
// whose intra-slice schedulers are Wasm plugins drawn from a shared
// instance pool, optionally exposing an E2-lite agent so a near-RT RIC
// (cmd/ric) can observe and control it, and optionally serving live
// observability over HTTP.
//
// Usage:
//
//	gnb -slices "mt:3M,rr:12M,pf:15M" -ues-per-slice 3 -duration 10s
//	gnb -cells 4 -http 127.0.0.1:9091 -duration 30s
//	gnb -e2 127.0.0.1:36421 -codec binary -duration 30s
//
// With -http set, the gNB serves while it runs:
//
//	curl http://127.0.0.1:9091/metrics        # Prometheus text exposition
//	curl http://127.0.0.1:9091/debug/slots    # last slot traces as JSON
//	go tool pprof http://127.0.0.1:9091/debug/pprof/profile
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/metrics"
	"waran/internal/obs"
	"waran/internal/obs/flight"
	"waran/internal/obs/trace"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/ric"
	"waran/internal/sched"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

func main() {
	cfg := gnbConfig{}
	flag.StringVar(&cfg.sliceSpec, "slices", "mt:3M,rr:12M,pf:15M", "comma list of scheduler:targetRate per slice")
	flag.IntVar(&cfg.uesPerSlice, "ues-per-slice", 3, "UEs attached to each slice (per cell)")
	flag.IntVar(&cfg.cells, "cells", 1, "number of cells stepped by the shared slot clock")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "simulated run length")
	flag.StringVar(&cfg.e2Addr, "e2", "", "RIC address for the E2 agent (empty = standalone)")
	flag.StringVar(&cfg.codecName, "codec", "binary", "E2 codec: binary, json, varint")
	flag.BoolVar(&cfg.shim, "widen-shim", false, "wrap the E2 codec in the 8->12-bit vendor adaptation plugin")
	flag.DurationVar(&cfg.liveness, "e2-liveness", 500*time.Millisecond, "declare the RIC dead after this much E2 silence (0 disables)")
	flag.BoolVar(&cfg.realtime, "realtime", false, "pace slots at wall-clock slot duration")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve /metrics, /debug/slots and pprof on this address (empty = off)")
	flag.BoolVar(&cfg.traceOn, "trace", false, "enable control-loop span tracing and the wasm fuel profiler (served at /debug/trace and /debug/wasm/profile)")
	flag.Int64Var(&cfg.e2Seed, "e2-seed", 0, "reconnect jitter schedule seed (0 = unique per process)")
	flag.BoolVar(&cfg.flightOn, "flight", false, "arm the flight recorder: always-on incident journal, SLO burn-rate detectors, anomaly-triggered diagnostic bundles (served at /debug/flight, DESIGN.md 18)")
	flag.StringVar(&cfg.flightDir, "flight-dir", "flight-bundles", "directory anomaly-triggered diagnostic bundles are written into")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gnb:", err)
		os.Exit(1)
	}
}

// gnbConfig is the binary's full knob set, one struct so tests can drive
// run() exactly as main does.
type gnbConfig struct {
	sliceSpec   string
	uesPerSlice int
	cells       int
	duration    time.Duration
	e2Addr      string
	codecName   string
	shim        bool
	liveness    time.Duration
	realtime    bool
	httpAddr    string
	traceOn     bool
	e2Seed      int64
	flightOn    bool
	flightDir   string

	// onReady (tests) fires once the HTTP listener is serving, with its
	// resolved address. afterRun (tests) fires after the slot loop and
	// final report, while the HTTP server is still up.
	onReady  func(addr string)
	afterRun func()
}

// traceDepth is how many slot events the live /debug/slots ring keeps.
const traceDepth = 512

// spanDepth is each plane's span-ring capacity when -trace is on.
const spanDepth = 8192

// flightDepth is the flight recorder's journal ring capacity when -flight
// is on: deep enough to hold minutes of rare-edge events, fixed so the
// recorder's memory never grows with incident length.
const flightDepth = 4096

// slotMissObjective is the gNB's slot deadline-miss SLO: at most 1% of
// slots may overrun their budget before the burn-rate detector pages.
const slotMissObjective = 0.01

func run(cfg gnbConfig) error {
	if cfg.cells <= 0 {
		cfg.cells = 1
	}
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: cfg.cells})
	if err != nil {
		return err
	}
	gnb := cg.Cell(0)
	fmt.Printf("cells: %d x (%d PRBs, %v slots, peak %.1f Mb/s at MCS 28)\n",
		cfg.cells, gnb.Cell.PRBs, gnb.Cell.SlotDuration, gnb.Cell.PeakRateBps(28)/1e6)

	// Every slice runs a pool-backed Wasm scheduler shared across cells:
	// one compiled module, up to one sandbox instance per cell.
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(traceDepth)
	var tracer *trace.Tracer
	var profile *wasm.Profile
	if cfg.traceOn {
		tracer = trace.NewTracer(spanDepth)
		profile = wasm.NewProfile()
		// The profiler must be in the group env before any scheduler pool
		// is built below.
		cg.PluginEnv = wabi.Env{Profile: profile}
	}
	// The flight recorder journals slot deadline misses from the hot loop
	// (rare edges only: a clean slot records nothing), feeds the slot-miss
	// SLO's burn-rate detector, and captures a diagnostic bundle when a
	// detector fires, a breaker opens or a swap rolls back.
	var frec *flight.Recorder
	var fdet *flight.DetectorSet
	var fcap *flight.Capturer
	var slotsStepped atomic.Uint64 // metric-exempt: SLO source, scraped via the detector
	if cfg.flightOn {
		frec = flight.NewRecorder(flightDepth)
		cg.SetFlightRecorder(frec)
		frec.Register(reg)
		fdet = flight.NewDetectorSet(frec)
		fdet.MustAdd(flight.SLO{
			Name:      "slot-deadline-miss",
			Objective: slotMissObjective,
			Bad:       func() uint64 { return frec.Count(flight.EvSlotDeadlineMiss) },
			Total:     slotsStepped.Load,
		}, flight.DetectorConfig{})
		frec.SetTriggers(flight.EvDetectorFire, flight.EvRollback, flight.EvBreakerOpen)
		ccfg := flight.CapturerConfig{Dir: cfg.flightDir, Registry: reg, Detectors: fdet, Tracer: tracer}
		if profile != nil {
			ccfg.Profile = profile
		}
		var err error
		fcap, err = flight.NewCapturer(frec, ccfg)
		if err != nil {
			return err
		}
		flightStop := make(chan struct{})
		defer close(flightStop)
		go fcap.Run(flightStop)
		go fdet.Run(flightStop, time.Second)
		fmt.Printf("flight recorder: %d-event journal, slot-miss SLO %.1f%%, bundles -> %s\n",
			frec.Cap(), slotMissObjective*100, cfg.flightDir)
	}

	meters := map[uint32]*metrics.RateMeter{}
	for i, part := range strings.Split(cfg.sliceSpec, ",") {
		name, rate, err := parseSlice(part)
		if err != nil {
			return err
		}
		id := uint32(i + 1)
		for c := 0; c < cfg.cells; c++ {
			cell := cg.Cell(c)
			sliceName := fmt.Sprintf("slice-%d(%s)", id, name)
			if _, err := cell.Slices.AddSlice(id, sliceName, rate, sched.RoundRobin{}, nil); err != nil {
				return err
			}
			for k := 0; k < cfg.uesPerSlice; k++ {
				mcs := 22 + (k*6)/max(1, cfg.uesPerSlice-1)
				ue := ran.NewUE(uint32(i*cfg.uesPerSlice+k+1), id, mcs)
				ue.Traffic = ran.NewCBR(1.4 * rate / float64(cfg.uesPerSlice))
				if err := cell.AttachUE(ue); err != nil {
					return err
				}
			}
		}
		ps, err := cg.InstallPooledScheduler(id, name, wabi.Policy{}, cfg.cells)
		if err != nil {
			return err
		}
		sliceLabel := obs.L("slice", strconv.FormatUint(uint64(id), 10))
		ps.Register(reg, sliceLabel)
		ps.Pool().Register(reg, sliceLabel)
		meters[id] = metrics.NewRateMeter(gnb.Cell.SlotDuration, time.Second)
		fmt.Printf("slice %d: %s scheduler (pooled Wasm plugin), target %.1f Mb/s, %d UEs per cell\n",
			id, name, rate/1e6, cfg.uesPerSlice)
	}
	cg.EnableObservability(reg, ring)
	if tracer != nil {
		cg.EnableTracing(tracer)
		fmt.Println("tracing: control-loop spans + wasm fuel profiler enabled")
	}

	// The E2 side runs under a supervisor: if the RIC is unreachable or
	// the association dies mid-run, the gNB keeps scheduling on its native
	// configuration while the session reconnects with backoff.
	var sess *ric.AgentSession
	var assoc *ric.AssocMetrics
	if cfg.e2Addr != "" {
		codec, err := buildCodec(cfg.codecName, cfg.shim)
		if err != nil {
			return err
		}
		assoc = &ric.AssocMetrics{}
		assoc.Register(reg)
		sess, err = ric.NewAgentSession(ric.AgentSessionConfig{
			Dial:    func() (*e2.Conn, error) { return e2.Dial(cfg.e2Addr, codec) },
			RAN:     gnb,
			Agent:   ric.AgentConfig{Cell: 1, LivenessTimeout: cfg.liveness, Tracer: tracer},
			Seed:    cfg.e2Seed,
			Metrics: assoc,
		})
		if err != nil {
			return err
		}
		sess.Start()
		defer sess.Stop()
		fmt.Printf("E2 agent supervising association to RIC at %s (codec %s, liveness %v)\n",
			cfg.e2Addr, codec.Name(), cfg.liveness)
	}

	if cfg.httpAddr != "" {
		lis, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			return err
		}
		var opts []obs.MuxOption
		if tracer != nil {
			opts = append(opts, obs.WithTracer(tracer), obs.WithWasmProfile(profile))
		}
		if frec != nil {
			opts = append(opts, flight.MuxOption(frec, fdet, fcap))
		}
		srv := &http.Server{Handler: obs.NewMux(reg, ring, opts...)}
		go srv.Serve(lis)
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics /debug/slots /debug/pprof\n", lis.Addr())
		if tracer != nil {
			fmt.Printf("tracing: http://%s/debug/trace /debug/wasm/profile\n", lis.Addr())
		}
		if frec != nil {
			fmt.Printf("flight: http://%s/debug/flight /debug/flight/journal /debug/flight/bundle\n", lis.Addr())
		}
		if cfg.onReady != nil {
			cfg.onReady(lis.Addr().String())
		}
	}

	slots := core.SlotsForDuration(gnb.Cell, cfg.duration)
	start := time.Now()
	for slot := 0; slot < slots; slot++ {
		results := cg.StepAll()
		slotsStepped.Add(1)
		for id, ss := range results[0].PerSlice {
			meters[id].AddSlot(ss.Bits)
		}
		if sess != nil {
			sess.Tick(uint64(slot))
		}
		if cfg.realtime {
			next := start.Add(time.Duration(slot+1) * gnb.Cell.SlotDuration)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
	}

	fmt.Printf("\nran %d slots x %d cells in %v\n", slots, cfg.cells, time.Since(start).Round(time.Millisecond))
	watch := cg.WatchdogStats()[0]
	fmt.Printf("cell 0 slot wall time: p99 %.1f us, worst %.1f us, %d overruns of the %v budget\n",
		watch.P99us, float64(watch.Worst.Nanoseconds())/1e3, watch.Overruns, watch.Deadline)
	fmt.Printf("%-16s %12s %12s %10s\n", "slice (cell 0)", "target Mb/s", "mean Mb/s", "fallbacks")
	for _, s := range gnb.Slices.Slices() {
		st := s.Stats()
		meters[s.ID].Flush() // close the final partial window before reading
		fmt.Printf("%-16s %12.2f %12.2f %10d\n",
			s.Name, s.TargetRate()/1e6, meters[s.ID].MeanBpsAfter(time.Second)/1e6, st.FallbackSlots)
	}
	if sess != nil {
		ind, ok, fail, resub := sess.Counters()
		fmt.Printf("e2: %d indications sent, %d controls applied, %d refused, %d resubscribes\n",
			ind, ok, fail, resub)
		snap := assoc.Stats()
		fmt.Printf("e2: %d associations, %d reconnects, %d dropped indications, degraded %.1f ms\n",
			sess.Associations(), snap.Reconnects, snap.DroppedIndications, snap.DegradedMs)
	}
	if frec != nil {
		fmt.Printf("flight: %d events journaled, %d diagnostic bundles in %s\n",
			frec.Seq(), len(fcap.Index()), cfg.flightDir)
	}
	if cfg.afterRun != nil {
		cfg.afterRun()
	}
	return nil
}

func parseSlice(part string) (string, float64, error) {
	name, rateStr, found := strings.Cut(strings.TrimSpace(part), ":")
	if !found {
		return "", 0, fmt.Errorf("bad slice spec %q (want scheduler:rate)", part)
	}
	rate, err := parseRate(rateStr)
	if err != nil {
		return "", 0, err
	}
	if _, ok := plugins.SchedulerWAT(name); !ok {
		return "", 0, fmt.Errorf("unknown scheduler %q (want rr, pf or mt)", name)
	}
	return name, rate, nil
}

func parseRate(s string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1e9, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = 1e6, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1e3, strings.TrimSuffix(strings.TrimSuffix(s, "k"), "K")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad rate %q: %w", s, err)
	}
	return v * mult, nil
}

func buildCodec(name string, shim bool) (e2.Codec, error) {
	codec, ok := e2.CodecByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown codec %q", name)
	}
	if !shim {
		return codec, nil
	}
	return ric.NewPluginCodecWAT("widen8to12", plugins.Widen8To12CommWAT, codec)
}
