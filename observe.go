package lmbench

import (
	"io"

	"repro/internal/obs"
)

// This file re-exports the observability surface a binary needs next
// to WithMetrics: the registry it serves, live progress, span traces
// and the HTTP server. Everything here is out-of-band: derived from
// the event stream and harness probe callbacks, never touching a timed
// interval or the results database.

// Registry is a process-local metric registry with a Prometheus text
// exposition; see NewRegistry and WithMetrics.
type Registry = obs.Registry

// Progress tracks per-machine completion and ETA for the live
// /progress endpoint.
type Progress = obs.Progress

// TraceSink turns the event stream into a span trace, one JSON line
// per completed attempt; Close emits the root span.
type TraceSink = obs.TraceSink

// Server exposes /metrics, /progress and /healthz over HTTP.
type Server = obs.Server

// NewRegistry returns an empty metric registry; WithMetrics fills it.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewProgress returns a progress tracker; feed it events via WithSink
// (which also declares each machine's plan) and serve it with Server.
func NewProgress() *Progress { return obs.NewProgress() }

// NewTraceSink writes span lines to w.
func NewTraceSink(w io.Writer) *TraceSink { return obs.NewTraceSink(w) }
