package core_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"waran/internal/exp"
	"waran/internal/obs"
)

// TestExperimentRegistry checks that the evaluation's table lists every
// figure in paper order and that lookups behave.
func TestExperimentRegistry(t *testing.T) {
	want := []string{"5a", "5b", "5c", "5d", "safety", "upload", "multicell",
		"pluginfaults", "e2faults", "citysim", "overload", "flightrec", "tracelat"}
	var order []string
	for _, e := range exp.All {
		order = append(order, e.Name)
		if e.Desc == "" {
			t.Errorf("experiment %q has no description", e.Name)
		}
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("table order %v, want %v", order, want)
	}
	if _, ok := exp.Lookup("5a"); !ok {
		t.Fatal("lookup 5a failed")
	}
	if _, ok := exp.Lookup("no-such-figure"); ok {
		t.Fatal("lookup of unknown name succeeded")
	}
}

// TestUploadExperimentRenders runs the Fig. 1 flow and checks its result
// renders the deployment narrative.
func TestUploadExperimentRenders(t *testing.T) {
	res, err := exp.RunUploadDemo()
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := any(res).(exp.TextRenderer)
	if !ok {
		t.Fatalf("upload result %T does not render as text", res)
	}
	var buf bytes.Buffer
	if err := tr.RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, wantS := range []string{"Fig. 1 flow", `"pool:pf-v2"`, "UE stayed attached"} {
		if !strings.Contains(out, wantS) {
			t.Errorf("rendered upload result missing %q:\n%s", wantS, out)
		}
	}
}

// TestRunMulticellEmbedsSnapshot checks the multicell experiment honors
// MulticellConfig.Obs: the instrumented parallel run populates the registry and
// the report embeds its snapshot alongside the timing figures.
func TestRunMulticellEmbedsSnapshot(t *testing.T) {
	cfg := exp.MulticellConfig{
		Cells:       2,
		Slots:       50,
		Parallelism: 2,
		Obs:         obs.NewRegistry(),
		Trace:       obs.NewTraceRing(64),
	}
	rep, err := exp.RunMulticell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SerialSlotsPerSec <= 0 || rep.ParallelSlotsPerSec <= 0 {
		t.Fatalf("timing figures missing: %+v", rep)
	}
	if rep.CacheHits == 0 {
		t.Fatalf("hot swap through the shared cache recorded no hits: %+v", rep)
	}
	if rep.Obs == nil {
		t.Fatal("report has no registry snapshot")
	}
	for _, key := range []string{
		`waran_slot_latency_us{cell="0"}`,
		`waran_slot_latency_us{cell="1"}`,
		`waran_cell_deadline{cell="0"}`,
		"waran_wabi_module_cache",
	} {
		if _, ok := rep.Obs[key]; !ok {
			t.Errorf("snapshot missing %q", key)
		}
	}
	if cfg.Trace.Len() == 0 {
		t.Fatal("instrumented run produced no trace events")
	}
}
