package core

import (
	"fmt"
	"time"

	"waran/internal/e2"
	"waran/internal/obs/trace"
	"waran/internal/ran"
	"waran/internal/wabi"
)

// This file is the gNB's E2 control surface: the host functions the paper
// describes the gNB exposing to the near-RT RIC via communication plugins
// (changing slice quotas, triggering handovers, hot-swapping schedulers).
// GNB implements ric.RANControl.

// Snapshot builds a KPM indication of current per-UE and per-slice state.
// The indication is the caller's (the agent sends it, a KPM store keeps
// it); its rows are allocated once, at their final length.
func (g *GNB) Snapshot(cell uint32) *e2.Indication {
	g.mu.Lock()
	defer g.mu.Unlock()
	ind := &e2.Indication{Slot: g.slot, Cell: cell}
	// Per-UE rows cover explicit UEs plus the fleet's materialized window,
	// so the report stays bounded (O(attached + ActiveK)) no matter how
	// large the modeled population is; the slice rows below aggregate
	// everything the cell served, fleet included.
	if n := len(g.ues) + len(g.fleetWin); n > 0 {
		ind.UEs = make([]e2.UEMeasurement, 0, n)
	}
	for _, pool := range [2][]*ran.UE{g.ues, g.fleetWin} {
		for _, u := range pool {
			ind.UEs = append(ind.UEs, e2.UEMeasurement{
				UEID:        u.ID,
				SliceID:     u.SliceID,
				MCS:         int32(u.MCS),
				BufferBytes: u.BufferBytes(),
				TputBps:     u.AvgTputBps,
			})
		}
	}
	g.snapSlices = g.Slices.AppendSlices(g.snapSlices[:0])
	if len(g.snapSlices) > 0 {
		ind.Slices = make([]e2.SliceMeasurement, len(g.snapSlices))
	}
	for i, s := range g.snapSlices {
		ind.Slices[i] = e2.SliceMeasurement{
			SliceID:   s.ID,
			TargetBps: s.TargetRate(),
			ServedBps: servedBps(g.rates, s.ID),
		}
	}
	return ind
}

// Apply executes a control request from the RIC. Unknown slices/UEs and
// unknown actions are errors so the RIC receives a negative acknowledgment
// rather than silence.
func (g *GNB) Apply(c *e2.ControlRequest) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.applyLocked(c, trace.Context{})
}

// ApplyTraced is Apply carrying the control's causal trace context (it
// implements ric.TracedRANControl). With tracing enabled it records a
// gnb.apply span parented to ctx, parents any supervised swap.canary span
// under it, and arms the slot.effect span that Step closes at the end of the
// first slot the decision affects.
func (g *GNB) ApplyTraced(c *e2.ControlRequest, ctx trace.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tracer == nil || !ctx.Valid() {
		return g.applyLocked(c, trace.Context{})
	}
	// The apply span's ID is allocated up front so child spans recorded
	// inside the apply (swap.canary) parent to it.
	child := trace.Context{TraceID: ctx.TraceID, SpanID: trace.NewSpanID()}
	start := time.Now()
	err := g.applyLocked(c, child)
	sp := &trace.Span{
		TraceID: ctx.TraceID, SpanID: child.SpanID, Parent: ctx.SpanID,
		Name: trace.SpanGNBApply, Plane: trace.PlaneGNB,
		Slot: g.slot, Cell: g.traceCell,
		StartNs: start.UnixNano(), DurNs: int64(time.Since(start)),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	g.tracer.Record(sp)
	if err == nil {
		g.effect = &effectArm{ctx: child, startNs: sp.StartNs}
	}
	return err
}

func (g *GNB) applyLocked(c *e2.ControlRequest, ctx trace.Context) error {
	switch c.Action {
	case e2.ActionSetSliceTarget:
		s, ok := g.Slices.Slice(c.SliceID)
		if !ok {
			return fmt.Errorf("core: control: unknown slice %d", c.SliceID)
		}
		if c.Value < 0 {
			return fmt.Errorf("core: control: negative target rate %f", c.Value)
		}
		s.SetTargetRate(c.Value)
		return nil
	case e2.ActionSetSliceWeight:
		s, ok := g.Slices.Slice(c.SliceID)
		if !ok {
			return fmt.Errorf("core: control: unknown slice %d", c.SliceID)
		}
		if c.Value <= 0 {
			return fmt.Errorf("core: control: non-positive weight %f", c.Value)
		}
		s.SetWeight(c.Value)
		return nil
	case e2.ActionSwapScheduler:
		bin, err := builtinBinary(c.Text)
		if err != nil {
			return fmt.Errorf("core: control: %w", err)
		}
		return g.upload(c.SliceID, c.Text, bin, ctx)
	case e2.ActionUploadScheduler:
		// The paper's Fig. 1 path: compiled Wasm bytecode is pushed into
		// the RAN over the wire and becomes the slice's scheduler, after
		// the full decode/validate gauntlet and shadow validation.
		if len(c.Blob) == 0 {
			return fmt.Errorf("core: control: upload-scheduler without bytecode")
		}
		name := c.Text
		if name == "" {
			name = "uploaded"
		}
		return g.upload(c.SliceID, name, c.Blob, ctx)
	case e2.ActionHandover:
		// In a multi-cell deployment the UE context would transfer to
		// c.Text's cell; in the single-cell model the UE leaves this gNB.
		return g.detachLocked(c.UEID)
	default:
		return fmt.Errorf("core: control: unsupported action %s", c.Action)
	}
}

// upload offers bin to the slice's supervisor as a hot-swap candidate, pooled
// and resolved through the module cache: re-uploads of identical bytecode
// (64 cells, retries, rollbacks) skip the decode/validate/flatten gauntlet.
// It is UploadSchedulerAll on g's group (a lone gNB is a group of one): the
// swap lands on every cell sharing the slice's supervisor, and a slice not
// yet supervised is put under one first. A rejected candidate leaves the
// incumbent serving and the error carries the shadow report. Under a live
// trace the whole upload is one swap.canary span.
func (g *GNB) upload(sliceID uint32, name string, bin []byte, ctx trace.Context) error {
	if _, ok := g.Slices.Slice(sliceID); !ok {
		return fmt.Errorf("core: control: unknown slice %d", sliceID)
	}
	start := time.Now()
	_, err := g.cellGroup().UploadSchedulerAll(sliceID, name, bin, wabi.Policy{}, 0)
	if g.tracer.Enabled() && ctx.Valid() {
		sp := &trace.Span{
			TraceID: ctx.TraceID, SpanID: trace.NewSpanID(), Parent: ctx.SpanID,
			Name: trace.SpanSwapCanary, Plane: trace.PlaneGNB, Slot: g.slot, Cell: g.traceCell,
			StartNs: start.UnixNano(), DurNs: int64(time.Since(start)),
		}
		if err != nil {
			sp.Err = err.Error()
		}
		g.tracer.Record(sp)
	}
	if err != nil {
		return fmt.Errorf("core: control: %w", err)
	}
	return nil
}
