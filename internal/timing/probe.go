package timing

import (
	"context"

	"repro/internal/ptime"
)

// Probe is an optional per-run observer of the measurement harness —
// the seam the observability layer's span tracer hangs off. A probe
// rides on the context (WithProbe); BenchLoopCtx reports calibration
// progress and per-batch samples to it.
//
// Out-of-band guarantee: every probe call happens strictly between
// clock readings — after a batch's closing reading and before the next
// batch's opening reading — never inside a timed interval. A probe can
// therefore log, aggregate or serialize freely without adding a single
// tick to any recorded sample. (On virtual clocks this is moot — they
// advance only when simulated work is charged — but on wall clocks it
// is the property that keeps observability out of the results.)
type Probe interface {
	// Calibrated reports the auto-scaled per-batch iteration count and
	// the clock resolution the run compensates for, once per BenchLoop
	// after the scaling phase settles.
	Calibrated(n int64, resolution ptime.Duration)
	// Sample reports one batch: its total elapsed time (by the harness
	// clock — virtual time on simulated machines) and the iteration
	// count it spanned. timed is false for auto-scaling probes and true
	// for the recorded measurement samples.
	Sample(elapsed ptime.Duration, n int64, timed bool)
}

type probeKey struct{}

// WithProbe returns a context carrying p; BenchLoopCtx calls made under
// it report their calibration steps and samples to p.
func WithProbe(ctx context.Context, p Probe) context.Context {
	return context.WithValue(ctx, probeKey{}, p)
}

// ProbeFrom extracts the probe installed by WithProbe, or nil.
func ProbeFrom(ctx context.Context) Probe {
	p, _ := ctx.Value(probeKey{}).(Probe)
	return p
}
