package ric_test

import (
	"testing"

	"waran/internal/exp"
)

// TestRunCitySimSmall drives the city-scale experiment at toy scale — 8
// cells x 64 modeled UEs x 2 sectors, batching on — so the one CellGroup
// under it is stepped with live E2 associations attached: every association must survive, the loop must close, the UE
// fleets must deliver, and the shed ledger must balance.
func TestRunCitySimSmall(t *testing.T) {
	const cells, sectors = 8, 2
	res, err := exp.RunCitySim(exp.CitySimConfig{
		Cells: cells, UEsPerCell: 64, Sectors: sectors, Slots: 50,
		BatchWindow: 4, ReportPeriodMs: 2, ActiveK: 8,
	})
	if err != nil {
		t.Fatalf("RunCitySim: %v", err)
	}
	if res.Associations != cells*sectors || res.Refused != 0 {
		t.Fatalf("associations live = %d (refused %d), want %d", res.Associations, res.Refused, cells*sectors)
	}
	if res.Indications == 0 || res.BatchFrames == 0 {
		t.Fatalf("indications = %d in %d batch frames, want both > 0", res.Indications, res.BatchFrames)
	}
	if res.FleetDeliveredBits <= 0 {
		t.Fatalf("UE fleets delivered %d bits", res.FleetDeliveredBits)
	}
	if !res.Overload.LedgerConserved() {
		t.Fatalf("shed ledger not conserved: %+v", res.Overload)
	}
}
