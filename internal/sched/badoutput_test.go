package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"waran/internal/wabi"
)

// craftBinaryResponse builds a response blob with an arbitrary count prefix
// over the given allocations — the count may lie about the payload.
func craftBinaryResponse(count uint32, allocs ...Allocation) []byte {
	b := make([]byte, 4+binRespAllocLen*len(allocs))
	le := binary.LittleEndian
	le.PutUint32(b[0:], count)
	off := 4
	for _, a := range allocs {
		le.PutUint32(b[off:], a.UEID)
		le.PutUint32(b[off+4:], a.PRBs)
		off += binRespAllocLen
	}
	return b
}

func TestBinaryDecodeRejectsCraftedOffsets(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
		ok   bool
	}{
		{"valid-empty", craftBinaryResponse(0), true},
		{"valid-two", craftBinaryResponse(2, Allocation{1, 5}, Allocation{2, 5}), true},
		{"truncated-header", []byte{2, 0}, false},
		{"nil", nil, false},
		// Count prefix points one allocation past the payload: reading it
		// would run out of bounds.
		{"count-past-end", craftBinaryResponse(3, Allocation{1, 5}, Allocation{2, 5}), false},
		// Count claims the maximum u32: the expected-length product must not
		// overflow into something that matches.
		{"count-overflow", craftBinaryResponse(^uint32(0), Allocation{1, 5}), false},
		{"count-huge", craftBinaryResponse(maxRespAllocs + 1), false},
		// Payload holds more allocations than the count claims: trailing
		// bytes the host would silently ignore.
		{"trailing-bytes", craftBinaryResponse(1, Allocation{1, 5}, Allocation{2, 5}), false},
		// Misaligned region: half an allocation dangling off the end.
		{"half-alloc", append(craftBinaryResponse(1, Allocation{1, 5}), 0xde, 0xad, 0xbe, 0xef), false},
		// Two grants to the same UE: overlapping result regions.
		{"overlap", craftBinaryResponse(2, Allocation{7, 3}, Allocation{7, 4}), false},
		{"overlap-far", craftBinaryResponse(3, Allocation{1, 1}, Allocation{2, 1}, Allocation{1, 1}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := BinaryCodec{}.DecodeResponse(tc.b)
			if tc.ok {
				if err != nil {
					t.Fatalf("valid blob rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("hostile blob accepted: %+v", resp)
			}
			var bo *BadOutputError
			if !errors.As(err, &bo) {
				t.Fatalf("error is not a *BadOutputError: %v", err)
			}
			if got := wabi.ClassOf(err); got != wabi.FailBadOutput {
				t.Fatalf("class = %v, want %v", got, wabi.FailBadOutput)
			}
		})
	}
}

// TestValidateFailureClassifiesBadOutput pins the scheduler-level wrap: a
// decodable response that fails semantic validation must carry the
// bad-output class through the error chain, with ErrInvalidResponse as its
// cause.
func TestValidateFailureClassifiesBadOutput(t *testing.T) {
	verr := (&Response{Allocs: []Allocation{{UEID: 99, PRBs: 1}}}).Validate(
		&Request{PRBBudget: 10, UEs: []UEInfo{{ID: 1}}})
	if verr == nil {
		t.Fatal("unknown-UE grant validated")
	}
	wrapped := fmt.Errorf("sched: plugin %q: %w", "evil", &BadOutputError{Err: verr})
	if got := wabi.ClassOf(wrapped); got != wabi.FailBadOutput {
		t.Fatalf("class = %v, want %v", got, wabi.FailBadOutput)
	}
	var bo *BadOutputError
	if !errors.As(wrapped, &bo) || !errors.Is(bo.Err, ErrInvalidResponse) {
		t.Fatal("ErrInvalidResponse is not the bad output's cause")
	}
}
