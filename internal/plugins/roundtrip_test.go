package plugins

import (
	"bytes"
	"testing"

	"waran/internal/wasm"
	"waran/internal/wat"
)

// faultNames lists the fault-injection plugins FaultWAT serves.
func faultNames() []string {
	return []string{
		"null-deref", "oob-access", "double-free", "stack-overflow",
		"infinite-loop", "leak", "bad-output", "over-budget", "guest-error",
	}
}

// corpus returns every WAT plugin shipped in this package.
func corpus() map[string]string {
	out := map[string]string{
		"sched/rr":        RoundRobinWAT,
		"sched/pf":        ProportionalFairWAT,
		"sched/mt":        MaxThroughputWAT,
		"xapp/steer":      TrafficSteerXAppWAT,
		"xapp/sla":        SLAAssureXAppWAT,
		"xapp/ping":       PingXAppWAT,
		"xapp/pong":       PongXAppWAT,
		"comm/widen8to12": Widen8To12CommWAT,
	}
	for _, name := range faultNames() {
		src, _ := FaultWAT(name)
		out["fault/"+name] = src
	}
	return out
}

// TestCorpusCompilesAndValidates is the gatekeeper: every shipped plugin
// must pass the full decode/validate pipeline.
func TestCorpusCompilesAndValidates(t *testing.T) {
	for name, src := range corpus() {
		if _, err := wat.CompileToBinary(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestDisassembleRecompileRoundTrip proves the toolchain closes the loop:
// compiling the disassembly of any shipped plugin reproduces its binary
// bit for bit.
func TestDisassembleRecompileRoundTrip(t *testing.T) {
	for name, src := range corpus() {
		bin1, err := wat.CompileToBinary(src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		m, err := wasm.Decode(bin1)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		text := wasm.Disassemble(m)
		bin2, err := wat.CompileToBinary(text)
		if err != nil {
			t.Fatalf("%s: recompile of disassembly: %v\n%s", name, err, text)
		}
		if !bytes.Equal(bin1, bin2) {
			t.Errorf("%s: disassembly round trip changed the binary (%d vs %d bytes)",
				name, len(bin1), len(bin2))
		}
	}
}
