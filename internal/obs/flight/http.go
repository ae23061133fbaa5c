package flight

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"waran/internal/obs"
)

// maxJournalQuery is the hard upper bound on /debug/flight's ?n= parameter,
// mirroring obs.MaxSlotsQuery: a fat-fingered query cannot become a giant
// allocation.
const maxJournalQuery = 4096

// statusResponse is the /debug/flight payload: journal tail, detector
// states, retained-bundle index.
type statusResponse struct {
	Enabled    bool            `json:"enabled"`
	Seq        uint64          `json:"seq"`
	Journal    []Event         `json:"journal"`
	Detectors  []DetectorState `json:"detectors"`
	Bundles    []BundleInfo    `json:"bundles"`
	Suppressed uint64          `json:"suppressed_since_last,omitempty"`
}

// Handler serves the flight-recorder status: the last N journal events
// (?n=, default 64, capped), detector states and the bundle index. Any of
// rec, ds, cap may be nil; a nil recorder serves {"enabled": false} so
// dashboards can probe unconditionally.
func Handler(rec *Recorder, ds *DetectorSet, cap *Capturer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 64
		if q := req.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			if v > maxJournalQuery {
				v = maxJournalQuery
			}
			n = v
		}
		resp := statusResponse{
			Enabled:   rec.Enabled(),
			Seq:       rec.Seq(),
			Journal:   rec.Tail(n),
			Detectors: []DetectorState{},
			Bundles:   []BundleInfo{},
		}
		if ds != nil {
			resp.Detectors = ds.States()
		}
		if cap != nil {
			resp.Bundles = cap.Index()
			resp.Suppressed = cap.Suppressed()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}

// JournalHandler serves the journal tail alone: JSON by default, the
// compact binary codec with ?format=binary (for operators streaming large
// windows; the layout is codec.go's). ?since= returns only events with a
// larger sequence number.
func JournalHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var events []Event
		if q := req.URL.Query().Get("since"); q != "" {
			since, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "since must be a non-negative integer", http.StatusBadRequest)
				return
			}
			events = rec.SnapshotSince(since)
		} else {
			events = rec.Tail(maxJournalQuery)
		}
		if req.URL.Query().Get("format") == "binary" {
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(EncodeJournal(events))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(events)
	})
}

// BundleHandler serves bundle downloads: ?seq=N streams that retained
// bundle's JSON file.
func BundleHandler(cap *Capturer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if cap == nil {
			http.Error(w, "bundle capture is not armed", http.StatusNotFound)
			return
		}
		seq, err := strconv.ParseUint(req.URL.Query().Get("seq"), 10, 64)
		if err != nil {
			http.Error(w, "seq must be a bundle sequence number", http.StatusBadRequest)
			return
		}
		info, ok := cap.Lookup(seq)
		if !ok {
			http.Error(w, "no such bundle (it may have been pruned)", http.StatusNotFound)
			return
		}
		data, err := os.ReadFile(info.File)
		if err != nil {
			http.Error(w, "bundle file unreadable", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", "attachment; filename="+strconv.Quote(filepath.Base(info.File)))
		_, _ = w.Write(data)
	})
}

// MuxOption mounts the flight surfaces on an obs.NewMux:
//
//	/debug/flight          status (journal tail ?n=, detectors, bundle index)
//	/debug/flight/journal  journal tail (?since=, ?format=binary)
//	/debug/flight/bundle   bundle download (?seq=)
//
// Defined here rather than in obs so the obs package stays free of a flight
// dependency (the same inversion as obs.WithTracer).
func MuxOption(rec *Recorder, ds *DetectorSet, cap *Capturer) obs.MuxOption {
	return func(mux *http.ServeMux) {
		mux.Handle("/debug/flight", Handler(rec, ds, cap))
		mux.Handle("/debug/flight/journal", JournalHandler(rec))
		mux.Handle("/debug/flight/bundle", BundleHandler(cap))
	}
}
