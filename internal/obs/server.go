package obs

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"
)

// Server exposes a run's observability over HTTP — the implementation
// behind `lmbench -serve addr`:
//
//	/metrics  Prometheus text exposition of the Registry
//	/progress live run state as JSON (see Snapshot)
//	/healthz  "ok" once serving
//
// The server runs beside the suite, not inside it: handlers only read
// atomic counters and mutex-guarded snapshots, so a scrape never
// blocks a measurement (and on simulated machines cannot perturb one
// even in principle — virtual clocks don't advance while a handler
// runs).
type Server struct {
	Registry *Registry
	Progress *Progress
}

// Handler returns the route table, exported separately so tests (and
// embedders) can drive it without a socket.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if s.Registry != nil {
			_ = s.Registry.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if s.Progress != nil {
			_ = enc.Encode(s.Progress.Snapshot())
			return
		}
		_ = enc.Encode(Snapshot{Time: time.Now()})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// Start begins serving on addr in the background and returns the
// actual bound address (useful with ":0"). The server stops when ctx
// is cancelled; stop() waits for shutdown to complete.
func (s *Server) Start(ctx context.Context, addr string) (bound string, stop func(), err error) {
	return StartHTTP(ctx, addr, s.Handler())
}

// StartHTTP begins serving h on addr in the background and returns the
// actual bound address (useful with ":0"). The server stops when ctx
// is cancelled, draining open requests for up to 2s; stop() cancels
// and waits for shutdown to complete. This is the lifecycle the
// observability server always used, exported so other serving
// surfaces (the results-store HTTP API) inherit the same graceful,
// context-bound behavior.
func StartHTTP(ctx context.Context, addr string, h http.Handler) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutCtx)
			<-served
		case <-served:
		}
	}()
	return ln.Addr().String(), func() { cancel(); <-done }, nil
}
