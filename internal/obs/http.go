package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// DebugMux builds the -debug-addr HTTP surface:
//
//	/metrics        registry snapshot (counters + histogram percentiles)
//	                from snapshot, plus statsFn's document when set
//	/traces/recent  recently finished traces, newest first
//	/traces/get?id= one trace (live or recent) by id, following merges
//	/debug/pprof/*  net/http/pprof
//	/debug/vars     expvar
//
// snapshot is the registry read to serve, e.g. a Registry's Snapshot or
// an engine's consistent MetricsSnapshot. tr and statsFn may be nil; the
// corresponding endpoint serves an empty document rather than 404, so
// smoke tests can assert well-formed JSON unconditionally.
func DebugMux(snapshot func() Snapshot, tr *Tracer, statsFn func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		doc := struct {
			Metrics Snapshot `json:"metrics"`
			Stats   any      `json:"stats,omitempty"`
		}{Metrics: snapshot()}
		if statsFn != nil {
			doc.Stats = statsFn()
		}
		writeJSON(w, doc)
	})
	mux.HandleFunc("/traces/recent", func(w http.ResponseWriter, r *http.Request) {
		traces := tr.Recent()
		if traces == nil {
			traces = []Trace{}
		}
		writeJSON(w, traces)
	})
	mux.HandleFunc("/traces/get", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		trc, ok := tr.Get(id)
		if !ok {
			http.Error(w, "unknown trace", http.StatusNotFound)
			return
		}
		writeJSON(w, trc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
