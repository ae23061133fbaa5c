// Package e2 implements WA-RAN's E2-lite interface between near-RT RIC and
// E2 nodes (gNB CU/DU): a small message model (subscription, indication,
// control), pluggable payload codecs (one compact "ASN.1-lite" layout with
// fixed-width or varint "protobuf-lite" integers, and JSON) and a
// length-framed TCP transport.
//
// Per §4B of the paper, the wire protocol is deliberately NOT a fixed
// standard: operators pick codec and transport, and wrap the choice inside
// communication plugins on both sides. The Codec interface is
// the seam where a Wasm communication plugin slots in (see PluginCodec in
// package ric).
package e2

import (
	"errors"
	"fmt"
	"math"

	"waran/internal/obs/trace"
)

// MessageType discriminates E2-lite messages.
type MessageType uint8

// Message types.
const (
	// TypeSubscriptionRequest asks an E2 node to stream indications.
	TypeSubscriptionRequest MessageType = iota + 1
	// TypeSubscriptionResponse acknowledges (or refuses) a subscription.
	TypeSubscriptionResponse
	// TypeIndication carries periodic KPM-style measurements.
	TypeIndication
	// TypeControlRequest carries a control action toward the RAN.
	TypeControlRequest
	// TypeControlAck reports the outcome of a control action when it is
	// news: a refusal with its reason, or the verdict on a scheduler swap or
	// upload. An applied parameter control is not acknowledged; the next
	// indication carries its effect.
	TypeControlAck
	// TypeHeartbeat keeps the association alive.
	TypeHeartbeat
	// TypeError reports a protocol-level failure.
	TypeError
	// TypeIndicationBatch carries one reporting window's per-slot KPM
	// indications coalesced into a single frame (see batch.go).
	TypeIndicationBatch
	// TypeBusy tells the peer the receiver is overloaded and carries a
	// retry-after hint (see busy.go). Sent at admission (a refused
	// association should redial after the hint) or mid-association as
	// backpressure: the agent pauses KPM reporting for the hint.
	TypeBusy
)

// String returns the message type name.
func (t MessageType) String() string {
	switch t {
	case TypeSubscriptionRequest:
		return "subscription-request"
	case TypeSubscriptionResponse:
		return "subscription-response"
	case TypeIndication:
		return "indication"
	case TypeControlRequest:
		return "control-request"
	case TypeControlAck:
		return "control-ack"
	case TypeHeartbeat:
		return "heartbeat"
	case TypeError:
		return "error"
	case TypeIndicationBatch:
		return "indication-batch"
	case TypeBusy:
		return "busy"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// RAN function identifiers, loosely mirroring O-RAN service models.
const (
	// RANFunctionKPM is the key-performance-measurement service.
	RANFunctionKPM uint32 = 2
	// RANFunctionRC is the RAN-control service.
	RANFunctionRC uint32 = 3
)

// Message is one E2-lite PDU. Body holds the typed payload before encoding
// / after decoding; exactly one of the pointer fields is non-nil according
// to Type.
type Message struct {
	Type        MessageType
	RequestID   uint32
	RANFunction uint32

	// Trace carries the causal tracing context (see tracehdr.go for the
	// wire format). The zero value means untraced and encodes to nothing.
	Trace trace.Context

	Subscription     *SubscriptionRequest
	SubscriptionResp *SubscriptionResponse
	Indication       *Indication
	Batch            *IndicationBatch
	Control          *ControlRequest
	ControlAck       *ControlAck
	Error            *ErrorBody
	Busy             *BusyBody
}

// SubscriptionRequest asks for periodic indications.
type SubscriptionRequest struct {
	// ReportPeriodMs is the indication cadence.
	ReportPeriodMs uint32
	// SliceIDs filters reporting to these slices (empty = all).
	SliceIDs []uint32
}

// SubscriptionResponse acknowledges a subscription.
type SubscriptionResponse struct {
	Accepted bool
	Reason   string
}

// UEMeasurement is one UE's KPM sample inside an indication.
type UEMeasurement struct {
	UEID        uint32
	SliceID     uint32
	MCS         int32
	BufferBytes uint32
	TputBps     float64
}

// SliceMeasurement is one slice's KPM sample inside an indication.
type SliceMeasurement struct {
	SliceID   uint32
	TargetBps float64
	ServedBps float64
	UsedPRBs  uint32
}

// Indication is a periodic measurement report from an E2 node.
type Indication struct {
	Slot   uint64
	Cell   uint32
	UEs    []UEMeasurement
	Slices []SliceMeasurement
}

// ControlAction discriminates control request kinds.
type ControlAction uint8

// Control actions.
const (
	// ActionSetSliceTarget updates a slice's contracted rate.
	ActionSetSliceTarget ControlAction = iota + 1
	// ActionSetSliceWeight updates a slice's inter-slice weight.
	ActionSetSliceWeight
	// ActionHandover requests a UE handover to a target cell.
	ActionHandover
	// ActionSwapScheduler hot-swaps a slice's intra-slice scheduler to a
	// named built-in plugin.
	ActionSwapScheduler
	// ActionUploadScheduler pushes new scheduler plugin bytecode into the
	// gNB and hot-swaps the slice to it — the paper's Fig. 1 flow:
	// software compiled to Wasm and pushed into the RAN over the wire.
	ActionUploadScheduler
)

// String returns the action name.
func (a ControlAction) String() string {
	switch a {
	case ActionSetSliceTarget:
		return "set-slice-target"
	case ActionSetSliceWeight:
		return "set-slice-weight"
	case ActionHandover:
		return "handover"
	case ActionSwapScheduler:
		return "swap-scheduler"
	case ActionUploadScheduler:
		return "upload-scheduler"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// ControlRequest is one control action toward the RAN.
type ControlRequest struct {
	Action  ControlAction
	SliceID uint32
	UEID    uint32
	// TargetBps for ActionSetSliceTarget; Weight for ActionSetSliceWeight
	// (both carried in Value).
	Value float64
	// TargetCell for ActionHandover; scheduler name for ActionSwapScheduler
	// (and a label for ActionUploadScheduler).
	Text string
	// Blob carries Wasm plugin bytecode for ActionUploadScheduler.
	Blob []byte
}

// ControlAck reports a control action outcome.
type ControlAck struct {
	Accepted bool
	Reason   string
}

// ErrorBody reports a protocol failure.
type ErrorBody struct {
	Reason string
}

// ErrUnknownType is returned when decoding an unrecognized message type.
var ErrUnknownType = errors.New("e2: unknown message type")

// ErrMalformed is returned when a frame cannot be decoded.
var ErrMalformed = errors.New("e2: malformed message")

// maxRows bounds the UE rows and slice rows of an indication and the slice
// IDs of a subscription: the compact layout counts each in a u16.
const maxRows = math.MaxUint16

// validateRows refuses an indication with more rows than its counts hold.
func validateRows(ind *Indication) error {
	if len(ind.UEs) > maxRows || len(ind.Slices) > maxRows {
		return fmt.Errorf("%w: %d UE rows and %d slice rows, the limit is %d each",
			ErrMalformed, len(ind.UEs), len(ind.Slices), maxRows)
	}
	return nil
}

// Validate checks internal consistency of a message.
func (m *Message) Validate() error {
	bodySet := 0
	if m.Subscription != nil {
		bodySet++
	}
	if m.SubscriptionResp != nil {
		bodySet++
	}
	if m.Indication != nil {
		bodySet++
	}
	if m.Batch != nil {
		bodySet++
	}
	if m.Control != nil {
		bodySet++
	}
	if m.ControlAck != nil {
		bodySet++
	}
	if m.Error != nil {
		bodySet++
	}
	if m.Busy != nil {
		bodySet++
	}
	switch m.Type {
	case TypeHeartbeat:
		if bodySet != 0 {
			return fmt.Errorf("%w: heartbeat with body", ErrMalformed)
		}
		return nil
	case TypeSubscriptionRequest:
		if m.Subscription == nil || bodySet != 1 {
			return fmt.Errorf("%w: subscription-request body mismatch", ErrMalformed)
		}
		if n := len(m.Subscription.SliceIDs); n > maxRows {
			return fmt.Errorf("%w: %d subscription slice IDs, the limit is %d", ErrMalformed, n, maxRows)
		}
	case TypeSubscriptionResponse:
		if m.SubscriptionResp == nil || bodySet != 1 {
			return fmt.Errorf("%w: subscription-response body mismatch", ErrMalformed)
		}
	case TypeIndication:
		if m.Indication == nil || bodySet != 1 {
			return fmt.Errorf("%w: indication body mismatch", ErrMalformed)
		}
		return validateRows(m.Indication)
	case TypeIndicationBatch:
		if m.Batch == nil || bodySet != 1 {
			return fmt.Errorf("%w: indication-batch body mismatch", ErrMalformed)
		}
		if err := validateBatch(m.Batch); err != nil {
			return err
		}
	case TypeControlRequest:
		if m.Control == nil || bodySet != 1 {
			return fmt.Errorf("%w: control-request body mismatch", ErrMalformed)
		}
	case TypeControlAck:
		if m.ControlAck == nil || bodySet != 1 {
			return fmt.Errorf("%w: control-ack body mismatch", ErrMalformed)
		}
	case TypeError:
		if m.Error == nil || bodySet != 1 {
			return fmt.Errorf("%w: error body mismatch", ErrMalformed)
		}
	case TypeBusy:
		if m.Busy == nil || bodySet != 1 {
			return fmt.Errorf("%w: busy body mismatch", ErrMalformed)
		}
	default:
		return fmt.Errorf("%w: %d", ErrUnknownType, m.Type)
	}
	return nil
}
