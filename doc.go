// Package waran is the root of the WA-RAN reproduction: a WebAssembly-based
// 5G O-RAN integration framework (HotNets '24) built entirely on the Go
// standard library.
//
// The implementation lives under internal/: a from-scratch Wasm runtime
// (internal/wasm) and WAT compiler (internal/wat), the plugin ABI
// (internal/wabi), the RAN substrate (internal/ran), the two-level slice
// scheduler (internal/sched, internal/slicing), the E2-lite interface
// (internal/e2), the near-RT RIC (internal/ric), the gNB (internal/core),
// and the paper's experiments (internal/exp). Executables are under cmd/ (cmd/waranbench regenerates
// every figure of the paper's evaluation), runnable scenarios under
// examples/, and the measurement harness under bench/.
package waran
