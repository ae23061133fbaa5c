package e2

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"waran/internal/obs/trace"
)

// Codec serializes E2-lite messages to wire payloads. The choice of codec
// is an operator decision wrapped inside communication plugins (paper §4B).
// BinaryCodec and VarintCodec are one compact layout — the same fields in
// the same order, written by one walk — that differ only in how an integer
// is encoded: fixed-width little endian (the smallest and fastest to walk)
// or an unsigned varint ("protobuf-lite", smallest when values are small).
// JSON is the interoperability/debugging option.
type Codec interface {
	Name() string
	Encode(m *Message) ([]byte, error)
	// Decode parses one frame payload. It must not keep b, or any part of
	// it, after it returns: Conn.Recv reads the next frame into the same
	// storage, so every string and byte slice of the message is a copy.
	Decode(b []byte) (*Message, error)
}

// AppendEncoder is the optional allocation-free encoding fast path: codecs
// that implement it encode into the caller's buffer instead of allocating a
// fresh payload per message. Conn.Send uses it to reuse one frame buffer
// per association, which keeps per-indication allocations flat when
// thousands of associations stream KPM reports.
type AppendEncoder interface {
	AppendEncode(dst []byte, m *Message) ([]byte, error)
}

// ---------------------------------------------------------------------------
// The compact layout ("ASN.1-lite" in spirit: position-based, each message
// defined once, the integer encoding kept apart).
//
// A frame is a u8 type, a u32 request ID and a u32 RAN function, the body of
// its type, then an optional trace trailer (tracehdr.go). Bodies:
//
//	subscription request   u32 reportPeriodMs | u16 n | n × u32 sliceID
//	subscription response  u8 accepted | str reason
//	indication             see body.go
//	indication batch       see batch.go
//	control request        see body.go
//	control ack            u8 accepted | str reason
//	error                  str reason
//	busy                   u32 retryAfterMs | str reason
//	heartbeat              (none)
//
// A str is a u16 length and that many bytes (longer strings are cut to
// 65 535 bytes); a blob is a u32 length and its bytes; an f64 is always 8
// bytes little endian. Every u8/u16/u32/u64 is fixed-width little endian in
// BinaryCodec and a uvarint in VarintCodec, where a value wider than its
// field is malformed.

// BinaryCodec is the compact layout with fixed-width integers.
type BinaryCodec struct{}

// Name implements Codec.
func (BinaryCodec) Name() string { return "binary" }

// Encode implements Codec.
func (c BinaryCodec) Encode(m *Message) ([]byte, error) { return c.AppendEncode(nil, m) }

// AppendEncode implements AppendEncoder: it encodes into dst's spare
// capacity so the transport can reuse one send buffer per association.
func (BinaryCodec) AppendEncode(dst []byte, m *Message) ([]byte, error) {
	return appendMessage(&bwriter{b: dst}, m)
}

// Decode implements Codec.
func (BinaryCodec) Decode(b []byte) (*Message, error) { return decodeMessage(&breader{b: b}) }

// VarintCodec is the compact layout with uvarint integers.
type VarintCodec struct{}

// Name implements Codec.
func (VarintCodec) Name() string { return "varint" }

// Encode implements Codec.
func (c VarintCodec) Encode(m *Message) ([]byte, error) { return c.AppendEncode(nil, m) }

// AppendEncode implements AppendEncoder.
func (VarintCodec) AppendEncode(dst []byte, m *Message) ([]byte, error) {
	return appendMessage(&bwriter{b: dst, varint: true}, m)
}

// Decode implements Codec.
func (VarintCodec) Decode(b []byte) (*Message, error) {
	return decodeMessage(&breader{b: b, varint: true})
}

// bwriter appends the compact layout; varint selects the integer encoding.
type bwriter struct {
	b      []byte
	varint bool
}

func (w *bwriter) u8(v uint8) {
	if w.varint {
		w.b = binary.AppendUvarint(w.b, uint64(v))
		return
	}
	w.b = append(w.b, v)
}

func (w *bwriter) u16(v uint16) {
	if w.varint {
		w.b = binary.AppendUvarint(w.b, uint64(v))
		return
	}
	w.b = binary.LittleEndian.AppendUint16(w.b, v)
}

func (w *bwriter) u32(v uint32) {
	if w.varint {
		w.b = binary.AppendUvarint(w.b, uint64(v))
		return
	}
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *bwriter) u64(v uint64) {
	if w.varint {
		w.b = binary.AppendUvarint(w.b, v)
		return
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *bwriter) f64(v float64) { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v)) }

func (w *bwriter) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

func (w *bwriter) blob(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

func (w *bwriter) reply(accepted bool, reason string) {
	var ok uint8
	if accepted {
		ok = 1
	}
	w.u8(ok)
	w.str(reason)
}

// breader reads the layout bwriter writes. The first failure sticks: it is
// kept in err, the rest of the input is consumed, and every later read
// returns zero, so a walk checks err once, at its end.
type breader struct {
	b      []byte
	pos    int
	varint bool
	err    error
}

func (r *breader) left() int { return len(r.b) - r.pos }

// fail keeps the first error and consumes what is left.
func (r *breader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.pos = len(r.b)
}

// take consumes the next n bytes, or fails and returns nil when fewer are
// left.
func (r *breader) take(n int) []byte {
	if n < 0 || r.left() < n {
		r.fail(ErrMalformed)
		return nil
	}
	b := r.b[r.pos : r.pos+n]
	r.pos += n
	return b
}

// uv reads an integer field off the fixed-width fast path: a uvarint no
// wider than max (a value its field cannot hold is malformed, not cut to
// it), or, with fixed-width integers, a field the input cuts short.
func (r *breader) uv(max uint64) uint64 {
	v, n := binary.Uvarint(r.b[r.pos:])
	if !r.varint || n <= 0 || v > max {
		r.fail(ErrMalformed)
		return 0
	}
	r.pos += n
	return v
}

func (r *breader) u8() uint8 {
	if r.varint || r.left() < 1 {
		return uint8(r.uv(math.MaxUint8))
	}
	r.pos++
	return r.b[r.pos-1]
}

func (r *breader) u16() uint16 {
	if r.varint || r.left() < 2 {
		return uint16(r.uv(math.MaxUint16))
	}
	r.pos += 2
	return binary.LittleEndian.Uint16(r.b[r.pos-2:])
}

func (r *breader) u32() uint32 {
	if r.varint || r.left() < 4 {
		return uint32(r.uv(math.MaxUint32))
	}
	r.pos += 4
	return binary.LittleEndian.Uint32(r.b[r.pos-4:])
}

func (r *breader) u64() uint64 {
	if r.varint || r.left() < 8 {
		return r.uv(math.MaxUint64)
	}
	r.pos += 8
	return binary.LittleEndian.Uint64(r.b[r.pos-8:])
}

func (r *breader) f64() float64 {
	if r.left() < 8 {
		r.fail(ErrMalformed)
		return 0
	}
	r.pos += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.pos-8:]))
}

func (r *breader) str() string { return string(r.take(int(r.u16()))) }

// blob reads a length-prefixed byte string into a copy; empty is nil.
func (r *breader) blob() []byte {
	if b := r.take(int(r.u32())); len(b) > 0 {
		return bytes.Clone(b)
	}
	return nil
}

// count reads a u16 row count and checks that the bytes left can hold that
// many rows of the least encoded size — fixed bytes each with fixed-width
// integers, varint bytes with uvarints — so nothing is sized from a forged
// count.
func (r *breader) count(fixed, varint int) int {
	n, size := int(r.u16()), fixed
	if r.varint {
		size = varint
	}
	if r.left() < n*size {
		r.fail(ErrMalformed)
		return 0
	}
	return n
}

// done returns the walk's first failure, or ErrMalformed naming what when
// bytes are left over.
func (r *breader) done(what string) error {
	if r.err == nil && r.left() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s", ErrMalformed, r.left(), what)
	}
	return r.err
}

// appendMessage validates m and appends its frame.
func appendMessage(w *bwriter, m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	w.u8(uint8(m.Type))
	w.u32(m.RequestID)
	w.u32(m.RANFunction)
	switch m.Type {
	case TypeSubscriptionRequest:
		w.u32(m.Subscription.ReportPeriodMs)
		w.u16(uint16(len(m.Subscription.SliceIDs)))
		for _, id := range m.Subscription.SliceIDs {
			w.u32(id)
		}
	case TypeSubscriptionResponse:
		w.reply(m.SubscriptionResp.Accepted, m.SubscriptionResp.Reason)
	case TypeIndication:
		w.indication(m.Indication)
	case TypeIndicationBatch:
		w.batch(m.Batch)
	case TypeControlRequest:
		w.control(m.Control)
	case TypeControlAck:
		w.reply(m.ControlAck.Accepted, m.ControlAck.Reason)
	case TypeError:
		w.str(m.Error.Reason)
	case TypeBusy:
		w.u32(m.Busy.RetryAfterMs)
		w.str(m.Busy.Reason)
	}
	return appendTraceTrailer(w.b, m.Trace), nil
}

// Frames whose Message and body decodeMessage allocates as one object: the
// near-RT loop's indications, controls and acks, and batches.
type (
	indicationFrame struct {
		msg Message
		ind Indication
	}
	batchFrame struct {
		msg   Message
		batch IndicationBatch
	}
	controlFrame struct {
		msg  Message
		ctrl ControlRequest
	}
	ackFrame struct {
		msg Message
		ack ControlAck
	}
)

// decodeMessage reads one frame. An indication, batch, control or ack
// frame's Message and body are one allocation, and rows are decoded in
// place into storage sized from the frame's checked counts.
func decodeMessage(r *breader) (*Message, error) {
	t, reqID, ranFn := MessageType(r.u8()), r.u32(), r.u32()
	if r.err != nil {
		return nil, r.err
	}
	var m *Message
	switch t {
	case TypeSubscriptionRequest:
		sub := &SubscriptionRequest{ReportPeriodMs: r.u32()}
		if n := r.count(4, 1); n > 0 { // u32 slice IDs
			sub.SliceIDs = make([]uint32, n)
			for i := range sub.SliceIDs {
				sub.SliceIDs[i] = r.u32()
			}
		}
		m = &Message{Subscription: sub}
	case TypeSubscriptionResponse:
		m = &Message{SubscriptionResp: &SubscriptionResponse{Accepted: r.u8() != 0, Reason: r.str()}}
	case TypeIndication:
		f := &indicationFrame{}
		r.indication(&f.ind)
		f.msg.Indication = &f.ind
		m = &f.msg
	case TypeIndicationBatch:
		f := &batchFrame{}
		r.batch(&f.batch)
		f.msg.Batch = &f.batch
		m = &f.msg
	case TypeControlRequest:
		f := &controlFrame{}
		r.control(&f.ctrl)
		f.msg.Control = &f.ctrl
		m = &f.msg
	case TypeControlAck:
		f := &ackFrame{ack: ControlAck{Accepted: r.u8() != 0, Reason: r.str()}}
		f.msg.ControlAck = &f.ack
		m = &f.msg
	case TypeError:
		m = &Message{Error: &ErrorBody{Reason: r.str()}}
	case TypeBusy:
		m = &Message{Busy: &BusyBody{RetryAfterMs: r.u32(), Reason: r.str()}}
	case TypeHeartbeat:
		m = &Message{}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	if r.err != nil {
		return nil, r.err
	}
	m.Type, m.RequestID, m.RANFunction = t, reqID, ranFn
	if r.left() != 0 {
		tc, ok := parseTraceTrailer(r.b[r.pos:])
		if !ok {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, r.left())
		}
		m.Trace = tc
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// JSONCodec.

// JSONCodec encodes messages as JSON objects.
type JSONCodec struct{}

// Name implements Codec.
func (JSONCodec) Name() string { return "json" }

type jsonMessage struct {
	Type        uint8  `json:"type"`
	RequestID   uint32 `json:"request_id"`
	RANFunction uint32 `json:"ran_function"`
	// Trace is the JSON form of the trace context; old decoders built on
	// encoding/json skip the unknown field by construction.
	Trace   *trace.Context        `json:"trace,omitempty"`
	Sub     *SubscriptionRequest  `json:"subscription,omitempty"`
	SubResp *SubscriptionResponse `json:"subscription_response,omitempty"`
	Ind     *Indication           `json:"indication,omitempty"`
	Batch   *IndicationBatch      `json:"indication_batch,omitempty"`
	Ctrl    *ControlRequest       `json:"control,omitempty"`
	Ack     *ControlAck           `json:"control_ack,omitempty"`
	Err     *ErrorBody            `json:"error,omitempty"`
	Busy    *BusyBody             `json:"busy,omitempty"`
}

// Encode implements Codec.
func (JSONCodec) Encode(m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	jm := jsonMessage{
		Type: uint8(m.Type), RequestID: m.RequestID, RANFunction: m.RANFunction,
		Sub: m.Subscription, SubResp: m.SubscriptionResp, Ind: m.Indication,
		Batch: m.Batch, Ctrl: m.Control, Ack: m.ControlAck, Err: m.Error,
		Busy: m.Busy,
	}
	if m.Trace.Valid() {
		tc := m.Trace
		jm.Trace = &tc
	}
	return json.Marshal(jm)
}

// Decode implements Codec.
func (JSONCodec) Decode(b []byte) (*Message, error) {
	var jm jsonMessage
	if err := json.Unmarshal(b, &jm); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	m := &Message{
		Type: MessageType(jm.Type), RequestID: jm.RequestID, RANFunction: jm.RANFunction,
		Subscription: jm.Sub, SubscriptionResp: jm.SubResp, Indication: jm.Ind,
		Batch: jm.Batch, Control: jm.Ctrl, ControlAck: jm.Ack, Error: jm.Err,
		Busy: jm.Busy,
	}
	if jm.Trace != nil {
		m.Trace = *jm.Trace
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// CodecByName looks up a codec by its Name.
func CodecByName(name string) (Codec, bool) {
	switch name {
	case "binary":
		return BinaryCodec{}, true
	case "json":
		return JSONCodec{}, true
	case "varint":
		return VarintCodec{}, true
	default:
		return nil, false
	}
}
