// Package fleet executes the benchmark suite across a pool of worker
// processes.
//
// The paper's third contribution is a results database built by running
// one suite on many machines; this package is the scale-out step that
// makes such a sweep outgrow a single Go process. A Coordinator
// partitions the evaluation into work units — one experiment group on
// one simulated machine, the same unit the suite journals and replays
// (core.WorkUnit) — and dispatches them to workers over a
// length-prefixed JSONL protocol. Workers are either re-executions of
// the current binary speaking the protocol on stdin/stdout (spawned
// automatically; any binary whose main calls lmbench.MaybeChild can
// host them) or remote worker daemons reached over TCP
// (ServeWith/DialWith), framed by internal/rpcx's sessions in both
// cases.
//
// Determinism: a unit's result is exactly what a serial Suite.Run
// produces for that group — workers build the named machine fresh from
// its profile and the suite resets it before every attempt — and the
// coordinator merges unit results in machine × group order, the serial
// iteration order. A fleet run of any worker count therefore encodes
// byte-identically to the in-process runs at any GOMAXPROCS, which
// the golden test pins against the PR-3 SHA-256.
//
// Robustness rides the existing seams: a dead or killed worker's
// in-flight unit is re-dispatched under the PR-1 retry/backoff policy
// and the worker is respawned; the coordinator journals every completed
// unit in the PR-2 format (serial and fleet journals are
// interchangeable), so a kill -9 of the coordinator itself resumes with
// -resume; and an Observer (obs.FleetMetrics) sees workers, queue
// depths and dispatch latency out of band.
package fleet

import (
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
)

// protoVersion guards the wire protocol. Local workers are re-execs of
// the coordinator binary and always match; a remote worker daemon built
// from different sources refuses mismatched units instead of producing
// silently divergent results. v2 added ping frames (idle keepalives and
// in-unit heartbeats), which a v1 endpoint would reject as unexpected.
const protoVersion = 2

// Message types.
const (
	msgUnit   = "unit"   // coordinator → worker: execute one work unit
	msgEvent  = "event"  // worker → coordinator: one suite lifecycle event
	msgResult = "result" // worker → coordinator: the unit's outcome
	// msgPing flows both ways and is ignored by the receiver; it exists
	// purely to keep idle deadlines from firing on healthy sessions.
	// The coordinator pings an idle remote worker so the daemon's idle
	// timeout doesn't reap it between units; a worker heartbeats during
	// unit execution so the coordinator's peer timeout doesn't declare
	// it dead mid-measurement.
	msgPing = "ping"
)

// wireMsg is one protocol frame: a JSON object, record-framed by an
// rpcx.Session. A flat struct with a type tag keeps the codec to one
// Marshal/Unmarshal and the stream greppable.
type wireMsg struct {
	Type string `json:"type"`
	// V is the protocol version, set on unit dispatches.
	V int `json:"v,omitempty"`
	// Seq identifies the work unit (unit and result frames).
	Seq int `json:"seq"`

	// Unit dispatch fields.
	Machine        string        `json:"machine,omitempty"`
	Key            string        `json:"key,omitempty"`
	IDs            []string      `json:"ids,omitempty"`
	Opts           *core.Options `json:"opts,omitempty"`
	Extended       bool          `json:"extended,omitempty"`
	Timeout        time.Duration `json:"timeout,omitempty"`
	Retries        int           `json:"retries,omitempty"`
	RetryBackoff   time.Duration `json:"retry_backoff,omitempty"`
	MaxRSD         float64       `json:"max_rsd,omitempty"`
	QualityRetries int           `json:"quality_retries,omitempty"`
	// Profile ships the machine's full profile when Machine is not a
	// compiled-in name (file-loaded or calibration-candidate profiles):
	// the worker builds from it instead of resolving the name locally.
	// Omitted for compiled built-ins, so their frames — and the fleet
	// golden bytes — are unchanged. Optional fields are JSON-compatible
	// across the protocol version.
	Profile *machines.Profile `json:"profile,omitempty"`

	// Result fields. Entries round-trip exactly: encoding/json writes
	// float64s in shortest form that parses back to the same bits, the
	// property the PR-2 journal already relies on.
	Entries []results.Entry `json:"entries,omitempty"`
	Skipped []string        `json:"skipped,omitempty"`
	Err     string          `json:"error,omitempty"`

	// Event carries one forwarded suite event.
	Event *core.Event `json:"event,omitempty"`
}
