package exp

import (
	"fmt"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/wabi"
	"waran/internal/wat"
)

// UploadDemoResult reports the Fig. 1 deployment flow: new scheduler
// bytecode pushed into a running gNB through the E2 control plane.
type UploadDemoResult struct {
	BeforeScheduler string        `json:"before_scheduler"`
	AfterScheduler  string        `json:"after_scheduler"`
	BlobBytes       int           `json:"blob_bytes"`
	SwapTime        time.Duration `json:"swap_time_ns"`
	UEKept          bool          `json:"ue_kept"`
}

// RunUploadDemo demonstrates the Fig. 1 deployment flow: a gNB scheduling a
// tenant slice with the round-robin plugin, then hot-swapped to freshly
// compiled proportional-fair bytecode via an E2 upload control, without
// stopping the slot loop or detaching the UE.
func RunUploadDemo() (*UploadDemoResult, error) {
	gnb, err := core.NewGNB(ran.CellConfig{})
	if err != nil {
		return nil, err
	}
	rr, err := core.NewPluginScheduler("rr", wabi.Policy{})
	if err != nil {
		return nil, err
	}
	s, err := gnb.Slices.AddSlice(1, "tenant", 10e6, rr, nil)
	if err != nil {
		return nil, err
	}
	if _, err := gnb.Supervise(1); err != nil {
		return nil, err
	}
	ue := ran.NewUE(1, 1, 24)
	ue.Traffic = ran.NewCBR(5e6)
	if err := gnb.AttachUE(ue); err != nil {
		return nil, err
	}
	gnb.RunSlots(100, nil)
	res := &UploadDemoResult{BeforeScheduler: s.SchedulerName()}

	blob, err := wat.CompileToBinary(plugins.ProportionalFairWAT)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	err = gnb.Apply(&e2.ControlRequest{
		Action: e2.ActionUploadScheduler, SliceID: 1, Text: "pf-v2", Blob: blob,
	})
	if err != nil {
		return nil, err
	}
	res.SwapTime = time.Since(start).Round(time.Microsecond)
	res.BlobBytes = len(blob)
	res.AfterScheduler = s.SchedulerName()
	gnb.RunSlots(100, nil)
	_, res.UEKept = gnb.UE(1)
	if !res.UEKept {
		return nil, fmt.Errorf("exp: upload demo: UE lost across hot swap")
	}
	return res, nil
}
