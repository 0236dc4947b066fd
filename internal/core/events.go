package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/ptime"
	"repro/internal/timing"
)

// EventKind names a suite-lifecycle transition.
type EventKind string

// The event stream a suite run emits. Every executed experiment
// produces one ExperimentStarted per attempt and exactly one terminal
// event (Finished, Skipped or Failed); each abandoned attempt in
// between produces an ExperimentRetried. Machine events bracket one
// machine's whole run when a Runner or the fleet drives several machines.
const (
	MachineStarted    EventKind = "machine_started"
	MachineFinished   EventKind = "machine_finished"
	ExperimentStarted EventKind = "experiment_started"
	// ExperimentFinished reports a successful run: Attempt is the
	// attempt that succeeded, Duration its elapsed wall time, Entries
	// the number of database entries it produced.
	ExperimentFinished EventKind = "experiment_finished"
	// ExperimentRetried reports an abandoned attempt: Err holds the
	// failure and Attempt the attempt number that failed.
	ExperimentRetried EventKind = "experiment_retried"
	// ExperimentSkipped reports a backend that cannot run the
	// experiment (ErrUnsupported).
	ExperimentSkipped EventKind = "experiment_skipped"
	// ExperimentFailed reports a run abandoned for good: the error was
	// not unsupported and the retry budget (or the context) is spent.
	ExperimentFailed EventKind = "experiment_failed"
	// ExperimentQuality reports a measurement rejected by the quality
	// gate: the attempt succeeded but its samples were too noisy
	// (Spread exceeded Suite.MaxRSD) and the experiment is being
	// re-measured. Spread carries the observed relative spread and
	// Samples the number of timed batches behind it.
	ExperimentQuality EventKind = "quality"
	// ExperimentReplayed reports an experiment whose result was
	// restored from a run journal instead of being re-executed
	// (`lmbench -resume`). Entries counts the restored entries.
	ExperimentReplayed EventKind = "experiment_replayed"
	// ExperimentCached reports an experiment whose result was restored
	// from the content-addressed unit cache (`lmbench -unit-cache`)
	// instead of being executed. Entries counts the restored entries.
	ExperimentCached EventKind = "experiment_cached"
	// CalibrateStarted opens a calibration run (`lmbench -calibrate`):
	// Machine names the profile being fitted and Entries the number of
	// parameters the fitter will descend on.
	CalibrateStarted EventKind = "calibrate_started"
	// CalibrateParam reports one fitted parameter: Experiment carries
	// the parameter name, Title the benchmark it was fitted against,
	// Attempt the number of candidate evaluations spent, Spread the
	// final relative error against the target, and Err the reason when
	// the parameter failed to converge.
	CalibrateParam EventKind = "calibrate_param"
	// CalibrateFinished closes a calibration run: Entries counts the
	// converged parameters, Attempt the total candidate evaluations,
	// Duration the elapsed wall time, and Err the terminal failure (if
	// any).
	CalibrateFinished EventKind = "calibrate_finished"
)

// Event is one structured record in the run's event stream.
type Event struct {
	Kind EventKind `json:"kind"`
	// Time is the wall-clock moment the event was emitted.
	Time time.Time `json:"time"`
	// Machine is the machine's results-database name.
	Machine string `json:"machine"`
	// Experiment is the experiment ID; empty on machine events.
	Experiment string `json:"experiment,omitempty"`
	// Title is the experiment's paper caption.
	Title string `json:"title,omitempty"`
	// Attempt is the 1-based attempt number of the run this event
	// describes (0 on machine events).
	Attempt int `json:"attempt,omitempty"`
	// Duration is the elapsed wall time of the finished, retried or
	// failed attempt, in nanoseconds; for MachineFinished it spans the
	// machine's whole run.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Entries is the number of database entries a finished experiment
	// produced.
	Entries int `json:"entries,omitempty"`
	// Err describes the failure on retried, skipped and failed events.
	Err string `json:"error,omitempty"`
	// Spread is the relative spread of the attempt's noisiest
	// measurement ((median - min) / min of the timed batches); set on
	// quality events and on finished events when the quality gate is
	// enabled.
	Spread float64 `json:"spread,omitempty"`
	// Samples is the number of timed batches behind Spread.
	Samples int `json:"samples,omitempty"`
	// Sim carries the simulated machine's activity-counter deltas for a
	// finished experiment (cache hits per level, DRAM accesses, TLB
	// misses, writebacks, and the simulator's own fast-path hit
	// counters), keyed "mem_accesses"-style. Only machines
	// implementing SimStatser produce it; zero-valued counters are
	// omitted. The counters live on events, not on result entries, so
	// the results database stays byte-identical regardless of
	// instrumentation.
	Sim map[string]int64 `json:"sim,omitempty"`
	// Sweep carries the adaptive sweep planner's decisions for a
	// finished experiment: "points_measured", "points_skipped" (grid
	// points filled synthetically instead of measured) and "rounds"
	// (coarse pass plus bisection rounds). Only attempts that ran an
	// adaptive sweep produce it; exhaustive sweeps leave it empty, so
	// the exhaustive event stream is unchanged.
	Sweep map[string]int64 `json:"sweep,omitempty"`
}

// EventSink receives suite-lifecycle events. Implementations must be
// safe for concurrent use: the executor delivers events from several
// unit goroutines at once.
type EventSink interface {
	Event(Event)
}

// AttemptProber is an optional EventSink capability. Before each
// experiment attempt, the suite asks a sink implementing it for a
// timing.Probe and installs the probe on the attempt's context; the
// measurement harness then reports calibration steps and per-batch
// samples to it. Return nil to decline an attempt.
//
// Probe calls honor timing's out-of-band guarantee (they land between
// clock readings, never inside a timed interval), but they run on the
// measurement goroutine: implementations should be cheap and must be
// safe for concurrent use when several machines run in parallel.
type AttemptProber interface {
	AttemptProbe(machine, experiment string, attempt int) timing.Probe
}

// discardSink drops everything; it stands in for a nil sink so the
// suite never branches on "is there a sink".
type discardSink struct{}

func (discardSink) Event(Event) {}

// SinkOrDiscard returns s, or a sink that drops every event when s is
// nil — the nil-sink rule of the suite, the scheduler, the fleet
// coordinator and the calibrator.
func SinkOrDiscard(s EventSink) EventSink {
	if s == nil {
		return discardSink{}
	}
	return s
}

// TextSink renders events as the classic progress lines ("running
// table2   Table 2. ...") the suite always printed. It is the adapter
// that preserves the old Log io.Writer behavior on top of the event
// stream.
type TextSink struct {
	mu sync.Mutex
	w  io.Writer
	// withMachine prefixes experiment lines with the machine name,
	// which keeps interleaved parallel output attributable.
	withMachine bool
}

// NewTextSink writes progress lines to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// NewPrefixedTextSink is NewTextSink with a "[machine] " prefix on
// every experiment line, for parallel runs whose output interleaves.
func NewPrefixedTextSink(w io.Writer) *TextSink {
	return &TextSink{w: w, withMachine: true}
}

// Event implements EventSink.
func (t *TextSink) Event(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	prefix := ""
	if t.withMachine {
		prefix = "[" + e.Machine + "] "
	}
	switch e.Kind {
	case MachineStarted:
		fmt.Fprintf(t.w, "== %s ==\n", e.Machine)
	case MachineFinished:
		if e.Err != "" {
			fmt.Fprintf(t.w, "%s== %s failed: %s ==\n", prefix, e.Machine, e.Err)
		}
	case ExperimentStarted:
		if e.Attempt <= 1 {
			fmt.Fprintf(t.w, "%srunning %-8s %s\n", prefix, e.Experiment, e.Title)
		}
	case ExperimentRetried:
		fmt.Fprintf(t.w, "%sretrying %-8s attempt %d failed: %s\n",
			prefix, e.Experiment, e.Attempt, e.Err)
	case ExperimentQuality:
		fmt.Fprintf(t.w, "%snoisy    %-8s spread %.1f%% over %d samples, re-measuring\n",
			prefix, e.Experiment, e.Spread*100, e.Samples)
	case ExperimentReplayed:
		fmt.Fprintf(t.w, "%sresumed  %-8s %s\n", prefix, e.Experiment, e.Title)
	case ExperimentCached:
		fmt.Fprintf(t.w, "%scached   %-8s %s\n", prefix, e.Experiment, e.Title)
	case ExperimentFailed:
		fmt.Fprintf(t.w, "%sfailed  %-8s after %d attempt(s): %s\n",
			prefix, e.Experiment, e.Attempt, e.Err)
	case CalibrateStarted:
		fmt.Fprintf(t.w, "%scalibrating %s: fitting %d parameter(s)\n",
			prefix, e.Machine, e.Entries)
	case CalibrateParam:
		if e.Err != "" {
			fmt.Fprintf(t.w, "%sfit      %-16s %s: %s (err %.1f%% after %d evals)\n",
				prefix, e.Experiment, e.Title, e.Err, e.Spread*100, e.Attempt)
			return
		}
		fmt.Fprintf(t.w, "%sfit      %-16s %s within %.1f%% (%d evals)\n",
			prefix, e.Experiment, e.Title, e.Spread*100, e.Attempt)
	case CalibrateFinished:
		if e.Err != "" {
			fmt.Fprintf(t.w, "%scalibration failed: %s\n", prefix, e.Err)
			return
		}
		fmt.Fprintf(t.w, "%scalibrated %s: %d parameter(s) converged, %d evals in %s\n",
			prefix, e.Machine, e.Entries, e.Attempt, e.Duration.Round(time.Millisecond))
	}
}

// JSONLSink writes one JSON object per event, newline-delimited — the
// machine-readable trace behind `lmbench -trace file.jsonl`.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink writes JSON-lines events to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Event implements EventSink.
func (j *JSONLSink) Event(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.enc.Encode(e)
}

// MultiSink fans one event out to several sinks in order.
type MultiSink []EventSink

// Event implements EventSink.
func (m MultiSink) Event(e Event) {
	for _, s := range m {
		if s != nil {
			s.Event(e)
		}
	}
}

// AttemptProbe implements AttemptProber by collecting the probes of
// every member sink that wants one; it returns nil when none do, so a
// MultiSink of probe-less sinks costs the suite nothing per attempt.
func (m MultiSink) AttemptProbe(machine, experiment string, attempt int) timing.Probe {
	var probes multiProbe
	for _, s := range m {
		ap, ok := s.(AttemptProber)
		if !ok {
			continue
		}
		if p := ap.AttemptProbe(machine, experiment, attempt); p != nil {
			probes = append(probes, p)
		}
	}
	switch len(probes) {
	case 0:
		return nil
	case 1:
		return probes[0]
	}
	return probes
}

// multiProbe fans harness probe calls out to several probes in order.
type multiProbe []timing.Probe

func (m multiProbe) Calibrated(n int64, resolution ptime.Duration) {
	for _, p := range m {
		p.Calibrated(n, resolution)
	}
}

func (m multiProbe) Sample(elapsed ptime.Duration, n int64, timed bool) {
	for _, p := range m {
		p.Sample(elapsed, n, timed)
	}
}
