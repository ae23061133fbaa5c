package e2

import "fmt"

// Windowed KPM indication batching on the E2 wire.
//
// A batch frame coalesces the per-slot KPM indications an agent would have
// sent as individual TypeIndication frames into one TypeIndicationBatch
// frame per reporting window. Each entry is the complete indication body —
// slot and cell included — so the receiver unbatches back to the exact
// per-slot indications, bit-identical to what the unbatched path delivers.
//
// Batch body, in the compact layout of codec.go:
//
//	u16 count (1..MaxBatchIndications)
//	per entry: one indication body (see body.go), oldest first
//
// The JSON codec carries an "indication_batch" object with an
// "indications" array.
//
// Every receiver of this build unbatches, so there is nothing to negotiate:
// an agent batches when its own window is over one (package ric).

// MaxBatchIndications bounds the entries in one batch frame: a full window
// at the longest sensible flush deadline stays far below this, and the
// decoder rejects anything larger before allocating.
const MaxBatchIndications = 4096

// IndicationBatch is one reporting window's worth of per-slot indications,
// oldest first.
type IndicationBatch struct {
	Indications []Indication `json:"indications"`
}

func (w *bwriter) batch(batch *IndicationBatch) {
	w.u16(uint16(len(batch.Indications)))
	for i := range batch.Indications {
		w.indication(&batch.Indications[i])
	}
}

// batch decodes a batch body into batch, each entry in place.
func (r *breader) batch(batch *IndicationBatch) {
	n := r.count(minIndicationBytes, minIndicationVarint)
	if n == 0 || n > MaxBatchIndications {
		r.fail(fmt.Errorf("%w: batch of %d indications, want 1 to %d", ErrMalformed, n, MaxBatchIndications))
		return
	}
	batch.Indications = make([]Indication, n)
	for i := range batch.Indications {
		r.indication(&batch.Indications[i])
	}
}

// validateBatch checks batch-specific invariants beyond body presence.
func validateBatch(batch *IndicationBatch) error {
	if len(batch.Indications) == 0 {
		return fmt.Errorf("%w: empty indication batch", ErrMalformed)
	}
	if len(batch.Indications) > MaxBatchIndications {
		return fmt.Errorf("%w: batch of %d indications exceeds limit", ErrMalformed, len(batch.Indications))
	}
	for i := range batch.Indications {
		if err := validateRows(&batch.Indications[i]); err != nil {
			return err
		}
	}
	return nil
}
