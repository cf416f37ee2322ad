// Package obshttp serves an obs.Registry over HTTP: the opt-in -obs
// endpoint shared by cmd/ebda-verify, cmd/ebda-sim and cmd/ebda-repro,
// and the introspection mux embedded by cmd/ebda-serve. It exposes
// /metrics (Prometheus text), /debug/vars (the JSON snapshot), the
// standard net/http/pprof profile handlers and the /healthz + /readyz
// probes, and implements the -obs-json end-of-run dump. It lives in a
// subpackage so the engine packages that record metrics never link
// net/http.
package obshttp

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"ebda/internal/obs"
	"ebda/internal/obs/trace"
)

// Mux routes /metrics, /debug/vars, /debug/traces (the process-wide
// flight recorder), /debug/pprof/*, /healthz and /readyz for one
// registry, returning the mux so callers (ebda-serve) can add their own
// routes beside the introspection set. ready gates /readyz: nil
// means always ready; a false return (a draining server) answers 503 so
// load balancers stop routing new work while in-flight requests finish.
// /healthz is liveness and always answers 200 — a draining process is
// still alive.
func Mux(reg *obs.Registry, ready func() bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := reg.Snapshot().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/traces", TracesHandler(trace.DefaultRecorder))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if ready != nil && !ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ready\n")
	})
	return mux
}

// Handler routes the introspection set for one registry, always ready.
func Handler(reg *obs.Registry) http.Handler { return Mux(reg, nil) }

// Serve binds addr and serves Handler(reg) in a background goroutine,
// returning the server (Close stops it) and the bound address — useful
// with ":0".
func Serve(addr string, reg *obs.Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg)}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// WriteCacheDelta renders the verify-cache series of delta (a snapshot
// difference, e.g. obs.Default.Snapshot().Sub(before)) through the shared
// snapshot renderer, plus the derived hit rate: the -cachestats report
// of the commands that call Setup, covering one run's traffic alone.
func WriteCacheDelta(w io.Writer, delta obs.Snapshot) error {
	delta = delta.Filter("ebda_verify_cache")
	fmt.Fprintln(w, "verify cache (this run):")
	if err := delta.WriteText(w); err != nil {
		return err
	}
	hits := delta.Counter("ebda_verify_cache_hits_total")
	misses := delta.Counter("ebda_verify_cache_misses_total")
	if hits+misses > 0 {
		_, err := fmt.Fprintf(w, "  hit rate: %.1f%% (%d/%d)\n",
			float64(hits)/float64(hits+misses)*100, hits, hits+misses)
		return err
	}
	return nil
}

// Setup wires the shared -obs/-obs-json command flags against the Default
// registry: when addr is non-empty the endpoint starts immediately; the
// returned finish function writes the end-of-run JSON dump when jsonPath
// is non-empty. Commands call finish once the run is complete, before
// deciding their exit status.
func Setup(addr, jsonPath string) (finish func() error, err error) {
	if addr != "" {
		_, bound, err := Serve(addr, obs.Default)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "obs: serving /metrics, /debug/vars and /debug/pprof on %s\n", bound)
	}
	return func() error {
		if jsonPath == "" {
			return nil
		}
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := obs.Default.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
