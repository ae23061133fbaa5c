// Command ric runs a WA-RAN near-Real-Time RIC: it hosts xApps as Wasm
// plugins and accepts E2-lite associations from gNBs (cmd/gnb -e2 <addr>).
//
// Usage:
//
//	ric -listen 127.0.0.1:36421 -xapps steer,sla -codec binary
//	ric -http 127.0.0.1:9092        # serve /metrics and pprof while running
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"waran/internal/e2"
	"waran/internal/obs"
	"waran/internal/obs/flight"
	"waran/internal/obs/trace"
	"waran/internal/plugins"
	"waran/internal/ric"
	"waran/internal/wabi"
	"waran/internal/wasm"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2) // the flag set has already said why
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ric:", err)
		os.Exit(1)
	}
}

// parseFlags maps the command line onto run's options.
func parseFlags(args []string) (runOpts, error) {
	fs := flag.NewFlagSet("ric", flag.ContinueOnError)
	var o runOpts
	fs.StringVar(&o.listen, "listen", "127.0.0.1:36421", "address to accept E2 associations on")
	fs.StringVar(&o.xapps, "xapps", "steer,sla", "comma list of xApps: steer, sla, ping, pong")
	fs.StringVar(&o.codecName, "codec", "binary", "E2 codec: binary, json, varint")
	fs.BoolVar(&o.shim, "widen-shim", false, "wrap the E2 codec in the 8->12-bit vendor adaptation plugin")
	period := fs.Uint("period", 100, "indication report period in ms")
	fs.DurationVar(&o.hb, "hb", 100*time.Millisecond, "heartbeat interval for association liveness (0 disables)")
	fs.BoolVar(&o.once, "once", false, "exit after the first association ends")
	fs.BoolVar(&o.nonRT, "nonrt", false, "run the non-RT RIC (SLA-tuner rApp) over the KPM history")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics and pprof on this address (empty = off)")
	fs.BoolVar(&o.traceOn, "trace", false, "enable control-loop span tracing and the xApp fuel profiler (served at /debug/trace and /debug/wasm/profile)")
	fs.IntVar(&o.shards, "shards", 0, "association shard count (0 = default)")
	fs.BoolVar(&o.noBatch, "nobatch", false, "do not advertise windowed indication batching to agents")
	fs.BoolVar(&o.flightOn, "flight", false, "arm the flight recorder: always-on incident journal, SLO burn-rate detectors, anomaly-triggered diagnostic bundles (served at /debug/flight, DESIGN.md 18)")
	fs.StringVar(&o.flightDir, "flight-dir", "flight-bundles", "directory anomaly-triggered diagnostic bundles are written into")
	err := fs.Parse(args)
	o.period = uint32(*period)
	return o, err
}

type runOpts struct {
	listen, xapps, codecName, httpAddr string
	shim, once, nonRT, traceOn         bool
	period                             uint32
	hb                                 time.Duration
	shards                             int
	noBatch                            bool
	flightOn                           bool
	flightDir                          string
}

// flightDepth is the flight recorder's journal ring capacity when -flight
// is on.
const flightDepth = 4096

// sloDetectors burns the RIC's two SLOs against its own ledger: the shed
// ratio of offered indications, and the dispatch-latency p99 against the
// brownout controller's budget (when that trigger is on).
func sloDetectors(frec *flight.Recorder, r *ric.RIC) *flight.DetectorSet {
	fdet := flight.NewDetectorSet(frec)
	fdet.MustAdd(flight.SLO{
		Name:      "shed-ratio",
		Objective: shedObjective,
		Bad: func() uint64 {
			s, _ := r.OverloadStats()
			return s.ShedOverflow + s.ShedStale + s.ShedTeardown + s.RefusedLate
		},
		Total: func() uint64 {
			s, _ := r.OverloadStats()
			return s.Offered
		},
	}, flight.DetectorConfig{})
	if budget := r.Config().Overload.LoopP99Budget; budget > 0 {
		fdet.MustAdd(flight.SLO{
			Name: "dispatch-p99",
			Value: func() float64 {
				s, _ := r.OverloadStats()
				return s.DispatchP99Ms
			},
			Budget: float64(budget) / float64(time.Millisecond),
		}, flight.DetectorConfig{})
	}
	return fdet
}

// shedObjective is the RIC's shed-ratio SLO: at most 1% of offered
// indications may shed before the burn-rate detector pages.
const shedObjective = 0.01

var xappSources = map[string]string{
	"steer": plugins.TrafficSteerXAppWAT,
	"sla":   plugins.SLAAssureXAppWAT,
	"ping":  plugins.PingXAppWAT,
	"pong":  plugins.PongXAppWAT,
}

// newRIC builds the RIC the options describe — cfg carries the instruments —
// and installs the requested xApps.
func newRIC(o runOpts, cfg ric.Config) (*ric.RIC, error) {
	cfg.ReportPeriodMs = o.period
	cfg.HeartbeatInterval = o.hb
	cfg.Shards = o.shards
	cfg.DisableBatching = o.noBatch
	cfg.OnFault = func(xapp string, err error) {
		fmt.Printf("xApp %s fault (contained): %v\n", xapp, err)
	}
	cfg.OnLog = func(xapp, msg string) {
		fmt.Printf("xApp %s: %s\n", xapp, msg)
	}
	r, err := ric.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range strings.Split(o.xapps, ",") {
		name = strings.TrimSpace(name)
		src, ok := xappSources[name]
		if !ok {
			return nil, fmt.Errorf("unknown xApp %q (have: steer, sla, ping, pong)", name)
		}
		if _, err := r.AddXAppWAT(name, src, wabi.Policy{}); err != nil {
			return nil, err
		}
		fmt.Printf("installed xApp %q (Wasm plugin)\n", name)
	}
	return r, nil
}

func run(o runOpts) error {
	var tracer *trace.Tracer
	var profile *wasm.Profile
	if o.traceOn {
		tracer = trace.NewTracer(8192)
		profile = wasm.NewProfile()
		fmt.Println("tracing: control-loop spans + xApp fuel profiler enabled")
	}
	assoc := &ric.AssocMetrics{}
	var frec *flight.Recorder
	if o.flightOn {
		frec = flight.NewRecorder(flightDepth)
	}
	r, err := newRIC(o, ric.Config{Assoc: assoc, Tracer: tracer, Flight: frec, Profile: profile})
	if err != nil {
		return err
	}

	codec, ok := e2.CodecByName(o.codecName)
	if !ok {
		return fmt.Errorf("unknown codec %q", o.codecName)
	}
	wireCodec := e2.Codec(codec)
	if o.shim {
		// Associations are served one at a time, so a single shim plugin
		// instance suffices.
		pc, err := ric.NewPluginCodecWAT("widen8to12", plugins.Widen8To12CommWAT, codec)
		if err != nil {
			return err
		}
		wireCodec = pc
	}

	lis, err := e2.Listen(o.listen, wireCodec)
	if err != nil {
		return err
	}
	defer lis.Close()
	lis.SetFlightRecorder(frec)
	fmt.Printf("near-RT RIC listening on %s (codec %s, report period %d ms, heartbeat %v, %d shards)\n",
		lis.Addr(), wireCodec.Name(), o.period, o.hb, r.Config().Shards)

	reg := obs.NewRegistry()
	r.Register(reg)

	// The flight recorder journals RIC-plane transitions (brownout shifts,
	// sheds, admission refusals, per-xApp breaker trips, association
	// lifecycle), burns the shed-ratio and dispatch-p99 SLOs through
	// multi-window detectors, and captures a diagnostic bundle when a
	// detector fires, the brownout shifts, or a breaker opens.
	var fdet *flight.DetectorSet
	var fcap *flight.Capturer
	if frec != nil {
		frec.Register(reg)
		fdet = sloDetectors(frec, r)
		frec.SetTriggers(flight.EvDetectorFire, flight.EvBrownoutShift, flight.EvBreakerOpen)
		ccfg := flight.CapturerConfig{Dir: o.flightDir, Registry: reg, Detectors: fdet, Tracer: tracer}
		if profile != nil {
			ccfg.Profile = profile
		}
		fcap, err = flight.NewCapturer(frec, ccfg)
		if err != nil {
			return err
		}
		flightStop := make(chan struct{})
		defer close(flightStop)
		go fcap.Run(flightStop)
		go fdet.Run(flightStop, time.Second)
		fmt.Printf("flight recorder: %d-event journal, shed SLO %.1f%%, bundles -> %s\n",
			frec.Cap(), shedObjective*100, o.flightDir)
	}

	if o.httpAddr != "" {
		hlis, err := net.Listen("tcp", o.httpAddr)
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
		srv := &http.Server{Handler: obs.NewMux(reg, nil, opts...)}
		go srv.Serve(hlis)
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics /debug/pprof\n", hlis.Addr())
		if tracer != nil {
			fmt.Printf("tracing: http://%s/debug/trace /debug/wasm/profile\n", hlis.Addr())
		}
		if frec != nil {
			fmt.Printf("flight: http://%s/debug/flight /debug/flight/journal /debug/flight/bundle\n", hlis.Addr())
		}
	}

	// onAssociation wires the per-association extras (the non-RT RIC's
	// guidance loop) and returns their teardown.
	onAssociation := func(conn *e2.Conn) func() {
		fmt.Println("E2 association accepted")
		if !o.nonRT {
			return nil
		}
		// Guidance from the slow loop flows back over the same E2
		// association as regular control requests.
		stopNonRT := make(chan struct{})
		var reqID uint32 = 10_000
		n := ric.NewNonRTRIC(r.KPM, func(c e2.ControlRequest) error {
			reqID++
			fmt.Printf("rApp guidance: %s slice=%d value=%.1f\n", c.Action, c.SliceID, c.Value)
			return conn.Send(&e2.Message{
				Type: e2.TypeControlRequest, RequestID: reqID,
				RANFunction: e2.RANFunctionRC, Control: &c,
			})
		})
		n.AddRApp(&ric.SLATuner{})
		go n.Run(stopNonRT)
		fmt.Println("non-RT RIC running (sla-tuner rApp, 1 s cadence)")
		return func() { close(stopNonRT) }
	}
	onEnd := func(err error) {
		if err != nil {
			fmt.Printf("association ended: %v\n", err)
		} else {
			fmt.Println("association closed")
		}
		ind, controls := r.Counters()
		snap := assoc.Stats()
		fmt.Printf("totals: %d indications processed, %d control actions emitted, %d reconnects, %d missed heartbeats\n",
			ind, controls, snap.Reconnects, snap.MissedHeartbeats)
	}

	if o.once {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		teardown := onAssociation(conn)
		err = r.ServeConn(conn, nil)
		conn.Close()
		if teardown != nil {
			teardown()
		}
		onEnd(err)
		return nil
	}

	// The session supervises associations forever: a gNB that reconnects
	// after a fault is re-subscribed and served by the same xApp state.
	sess, err := ric.NewSession(ric.SessionConfig{
		RIC:           r,
		Connect:       lis.Accept,
		Metrics:       assoc,
		OnAssociation: onAssociation,
		OnEnd:         onEnd,
	})
	if err != nil {
		return err
	}
	sess.Run(make(chan struct{}))
	return nil
}
