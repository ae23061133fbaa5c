// Interop shim: the paper's introduction example made concrete. Vendor A's
// DU emits control frames with 8-bit power fields; vendor B's RU expects
// 12-bit fields. Neither stack can be modified — both are closed firmware.
// The system integrator ships a Wasm communication plugin that transcodes
// frames in flight, exactly the WA-RAN answer to O-RAN's interoperability
// gap (§3B).
//
//	go run ./examples/interop-shim
package main

import (
	"fmt"
	"log"

	"waran/internal/plugins"
	"waran/internal/wabi"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The integrator uploads the shim plugin; the RAN host sandboxes it in
	// a pool of one instance, checked out per call.
	mod, err := wabi.CompileWAT(plugins.Widen8To12CommWAT)
	if err != nil {
		return err
	}
	shim := wabi.NewPool(mod, wabi.Policy{Fuel: wabi.DefaultFuel}, wabi.Env{}, 1)

	// Vendor A's frame: four 8-bit radio power levels.
	vendorA := []byte{0x00, 0x40, 0x80, 0xFF}
	fmt.Printf("vendor A frame (8-bit fields):  %x\n", vendorA)

	// Shim "encode": widen each 8-bit field to the 12-bit format vendor B
	// parses (value << 4, carried little-endian in 16 bits).
	vendorB, err := shim.Call("encode", vendorA)
	if err != nil {
		return err
	}
	fmt.Printf("vendor B frame (12-bit fields): %x\n", vendorB)
	for i := 0; i < len(vendorB); i += 2 {
		v12 := uint16(vendorB[i]) | uint16(vendorB[i+1])<<8
		fmt.Printf("  field %d: 0x%02X -> 0x%03X\n", i/2, vendorA[i/2], v12)
	}

	// And back: vendor B's replies narrow to vendor A's format.
	back, err := shim.Call("decode", vendorB)
	if err != nil {
		return err
	}
	fmt.Printf("narrowed back for vendor A:     %x\n", back)
	if string(back) != string(vendorA) {
		return fmt.Errorf("round trip mismatch")
	}

	// Malformed vendor-B frames are rejected inside the sandbox, not by
	// crashing the host.
	if _, err := shim.Call("decode", []byte{0x01}); err != nil {
		fmt.Printf("malformed frame rejected safely: %v\n", err)
	}

	fmt.Println("\nboth vendors interoperate; neither shipped a firmware change")
	return nil
}
