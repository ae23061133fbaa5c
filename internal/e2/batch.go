package e2

import (
	"fmt"
	"strings"
)

// Windowed KPM indication batching on the E2 wire.
//
// A batch frame coalesces the per-slot KPM indications an agent would have
// sent as individual TypeIndication frames into one TypeIndicationBatch
// frame per reporting window. Each entry is the complete indication body —
// slot and cell included — so the receiver unbatches back to the exact
// per-slot indications, bit-identical to what the unbatched path delivers.
//
// Batch body layout (binary codec, little endian):
//
//	u16 count
//	per entry: one indication body (see body.go), oldest first
//
// The varint codec uses the same structure with its own integer encoding;
// the JSON codec carries an "indication_batch" object with an
// "indications" array.
//
// Like trace-context propagation (tracehdr.go), batching is capability
// negotiated so mixed-version associations interop unchanged: the RIC
// advertises BatchCapabilityBit in its SubscriptionRequest RANFunction (old
// agents echo the field without interpreting it), and a batch-capable agent
// answers by including BatchCapabilityToken in the SubscriptionResponse
// Reason token list. An agent only emits tokens for capabilities the RIC
// advertised, so an old RIC that compares Reason against the bare trace
// token still matches, and an old agent that never saw the bit keeps
// sending per-slot indications the new RIC handles as before.

// BatchCapabilityBit is OR-ed into SubscriptionRequest.RANFunction by a
// RIC willing to receive batched indications. Old agents echo the field
// untouched; new agents mask capability bits out before interpreting the
// RAN function.
const BatchCapabilityBit uint32 = 1 << 30

// BatchCapabilityToken is included in the SubscriptionResponse Reason token
// list by a batch-capable agent answering a batch-capable RIC.
const BatchCapabilityToken = "batch-v1"

// CapabilityBits masks every capability-advertisement bit a RIC may set in
// SubscriptionRequest.RANFunction.
const CapabilityBits = TraceCapabilityBit | BatchCapabilityBit

// MaxBatchIndications bounds the entries in one batch frame: a full window
// at the longest sensible flush deadline stays far below this, and the
// decoder rejects anything larger before allocating.
const MaxBatchIndications = 4096

// IndicationBatch is one reporting window's worth of per-slot indications,
// oldest first.
type IndicationBatch struct {
	Indications []Indication `json:"indications"`
}

// HasCapabilityToken reports whether the space-separated capability token
// list in a SubscriptionResponse Reason contains tok. The pre-batch wire
// format carried a single bare token, which parses as a one-element list.
func HasCapabilityToken(reason, tok string) bool {
	for len(reason) > 0 {
		i := strings.IndexByte(reason, ' ')
		if i < 0 {
			return reason == tok
		}
		if reason[:i] == tok {
			return true
		}
		reason = reason[i+1:]
	}
	return false
}

// AppendCapabilityToken appends tok to a space-separated capability token
// list, returning the new list.
func AppendCapabilityToken(reason, tok string) string {
	if reason == "" {
		return tok
	}
	return reason + " " + tok
}

// appendBatchBody appends the encoded batch body (binary layout) to b.
func appendBatchBody(b []byte, batch *IndicationBatch) []byte {
	w := &bwriter{b: b}
	w.u16(uint16(len(batch.Indications)))
	for i := range batch.Indications {
		w.b = AppendIndicationBody(w.b, &batch.Indications[i])
	}
	return w.b
}

// readBatchBody parses a batch body (binary layout).
func readBatchBody(r *breader) (*IndicationBatch, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > MaxBatchIndications {
		return nil, fmt.Errorf("%w: batch of %d indications exceeds limit", ErrMalformed, n)
	}
	batch := &IndicationBatch{}
	for i := 0; i < int(n); i++ {
		ind, err := readIndicationBody(r)
		if err != nil {
			return nil, err
		}
		batch.Indications = append(batch.Indications, *ind)
	}
	return batch, nil
}

// validateBatch checks batch-specific invariants beyond body presence.
func validateBatch(batch *IndicationBatch) error {
	if len(batch.Indications) == 0 {
		return fmt.Errorf("%w: empty indication batch", ErrMalformed)
	}
	if len(batch.Indications) > MaxBatchIndications {
		return fmt.Errorf("%w: batch of %d indications exceeds limit", ErrMalformed, len(batch.Indications))
	}
	return nil
}
