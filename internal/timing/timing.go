// Package timing implements the lmbench measurement harness.
//
// The paper's methodology (§3.4) has three ingredients, all reproduced
// here:
//
//   - Clock-resolution compensation: some 1995 systems had 10ms
//     gettimeofday resolution, so every benchmark runs its operation in a
//     loop sized so the whole loop spans many clock ticks, then divides by
//     the loop count. BenchLoop auto-scales the iteration count until one
//     timed sample lasts at least Options.MinSampleTime and at least
//     ResolutionMultiple ticks of the measured clock resolution.
//
//   - Cache warming: benchmarks that expect data to be cached are run
//     several times and only later results are recorded. BenchLoop always
//     performs one untimed warm-up batch unless Options.NoWarmup is set.
//
//   - Variability: results such as context switching vary up to 30%
//     run-to-run; lmbench reports the minimum of repeated measurements.
//     BenchLoop takes Options.Samples samples and Measurement.PerOp is
//     derived from the fastest one.
//
// All time flows through the Clock interface, so the same harness drives
// both the host backend (real time.Now) and the simulator (exact virtual
// clock that only advances when simulated work is charged).
package timing

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ptime"
)

// Clock is a monotonic time source. Readings are relative to an
// arbitrary epoch; only differences are meaningful.
type Clock interface {
	Now() ptime.Duration
}

// WallClock reads the host's monotonic clock.
type WallClock struct {
	epoch time.Time
}

// NewWallClock returns a Clock backed by time.Now.
func NewWallClock() *WallClock { return &WallClock{epoch: time.Now()} }

// Now returns time elapsed since the clock was created.
func (w *WallClock) Now() ptime.Duration { return ptime.FromStd(time.Since(w.epoch)) }

// RealTime marks the wall clock as reading real time; see IsRealTime.
func (w *WallClock) RealTime() bool { return true }

// RealTimer is an optional Clock capability: clocks whose readings come
// from the real machine rather than a simulation report RealTime true.
// The suite executor serializes experiments on real-time clocks so
// concurrent work never perturbs a wall-clock measurement.
type RealTimer interface {
	RealTime() bool
}

// IsRealTime reports whether c measures real wall time. Virtual
// (simulated) clocks do not implement RealTimer and are never
// real-time.
func IsRealTime(c Clock) bool {
	rt, ok := c.(RealTimer)
	return ok && rt.RealTime()
}

// QuantizedClock wraps a Clock and truncates readings to Step, emulating
// the coarse 10ms gettimeofday of some 1995 systems. It exists so the
// harness's resolution compensation can be exercised deterministically.
type QuantizedClock struct {
	Base Clock
	Step ptime.Duration
}

// Now returns the base reading truncated down to a multiple of Step.
func (q *QuantizedClock) Now() ptime.Duration {
	t := q.Base.Now()
	if q.Step <= 0 {
		return t
	}
	return t - t%q.Step
}

// RealTime forwards to the base clock: quantization does not change
// whether readings come from real time.
func (q *QuantizedClock) RealTime() bool { return IsRealTime(q.Base) }

// ExactResolver is an optional Clock capability: a clock that is exact
// — it advances only when simulated work is charged to it, never on a
// read — knows its own resolution and reports it directly. The
// simulator's virtual clock returns 1 (one ptime unit).
//
// EstimateResolution short-circuits on this capability. Probing such a
// clock is provably futile: reads charge no work, so no probe loop can
// ever observe a transition, and the loop would burn its entire read
// budget (~8ms of host time per BenchLoop call) only to conclude what
// the capability already states. The returned value is identical to
// what the exhausted probe would report, so the fast path changes
// nothing observable — only how long it takes to observe it.
type ExactResolver interface {
	ExactResolution() ptime.Duration
}

// EstimateResolution measures the clock's effective resolution: the
// smallest positive difference observed between consecutive readings.
// For a quantized clock this converges to the quantum; for a fine clock
// it converges to the read cost. Exact clocks (ExactResolver) are not
// probed at all.
//
// Probing is capped two ways: by a raw read budget (a stuck clock —
// one that never advances — exhausts it and is treated as exact), and
// by the span of clock time already probed (a very coarse quantized
// clock stops as soon as one full quantum has been observed rather
// than waiting out four of them). Both caps bound the harness's
// calibration cost on degenerate clocks without changing the estimate
// for sane ones: the returned value is the minimum positive delta, and
// every delta of a quantized clock equals its quantum.
func EstimateResolution(c Clock) ptime.Duration {
	if er, ok := c.(ExactResolver); ok {
		if r := er.ExactResolution(); r > 0 {
			return r
		}
	}
	// Probe until several tick transitions are seen. A 10ms-quantum
	// clock needs many raw reads before it ticks even once, so the read
	// budget is large; a stuck clock exhausts the budget and is treated
	// as exact.
	const (
		maxReads        = 2_000_000
		wantTransitions = 4
		// maxProbeSpan stops probing once this much clock time has been
		// covered and at least one transition was seen: a quantum
		// coarser than maxProbeSpan/wantTransitions would otherwise pay
		// wantTransitions full quanta of real waiting for no better an
		// estimate.
		maxProbeSpan = 250 * ptime.Millisecond
	)
	best := ptime.Duration(0)
	transitions := 0
	first := c.Now()
	last := first
	for i := 0; i < maxReads && transitions < wantTransitions; i++ {
		now := c.Now()
		if d := now - last; d > 0 {
			if best == 0 || d < best {
				best = d
			}
			transitions++
			last = now
			if now-first >= maxProbeSpan {
				break
			}
		}
	}
	if best == 0 {
		// The clock never advanced during probing (a stuck clock).
		// Treat it as exact.
		best = 1
	}
	return best
}

// Options controls a BenchLoop run. The zero value selects sensible
// defaults mirroring lmbench's hand tuning.
type Options struct {
	// MinSampleTime is the minimum duration one timed batch must span.
	// Default 5ms on a wall clock; the simulator's exact clock allows
	// much smaller values (it is floored at the measured resolution
	// times ResolutionMultiple regardless).
	MinSampleTime ptime.Duration

	// Samples is how many timed batches to run; PerOp comes from the
	// fastest. Default 7.
	Samples int

	// NoWarmup disables the untimed warm-up batch.
	NoWarmup bool

	// MaxN caps the auto-scaled per-batch iteration count; exceeded
	// means the operation is too fast for the clock and ErrClockStuck
	// is returned. Default 1<<32.
	MaxN int64

	// ResolutionMultiple is the minimum number of clock quanta one
	// batch must span. Default 100.
	ResolutionMultiple int64

	// Resolution overrides clock-resolution estimation when positive.
	Resolution ptime.Duration
}

// Normalize validates o and fills in defaults for unset (zero) fields.
// Zero values mean "use the default"; negative values are nonsensical
// and rejected, so a caller cannot silently run with a misconfigured
// harness.
func (o Options) Normalize() (Options, error) {
	switch {
	case o.MinSampleTime < 0:
		return o, fmt.Errorf("timing: negative MinSampleTime %v", o.MinSampleTime)
	case o.Samples < 0:
		return o, fmt.Errorf("timing: negative Samples %d", o.Samples)
	case o.MaxN < 0:
		return o, fmt.Errorf("timing: negative MaxN %d", o.MaxN)
	case o.ResolutionMultiple < 0:
		return o, fmt.Errorf("timing: negative ResolutionMultiple %d", o.ResolutionMultiple)
	case o.Resolution < 0:
		return o, fmt.Errorf("timing: negative Resolution %v", o.Resolution)
	}
	if o.MinSampleTime == 0 {
		o.MinSampleTime = 5 * ptime.Millisecond
	}
	if o.Samples == 0 {
		o.Samples = 7
	}
	if o.MaxN == 0 {
		o.MaxN = 1 << 32
	}
	if o.ResolutionMultiple == 0 {
		o.ResolutionMultiple = 100
	}
	return o, nil
}

// ErrClockStuck reports that the operation could not be scaled to span a
// measurable interval, i.e. the clock is not advancing.
var ErrClockStuck = errors.New("timing: clock did not advance; cannot calibrate")

// Measurement is the result of one BenchLoop run.
type Measurement struct {
	// PerOp is the fastest observed per-operation time.
	PerOp ptime.Duration
	// N is the per-batch iteration count used for the timed samples.
	N int64
	// Samples holds the total elapsed time of each timed batch.
	Samples []ptime.Duration
}

// PerOpNS returns the per-operation time in nanoseconds.
func (m Measurement) PerOpNS() float64 { return m.PerOp.Nanoseconds() }

// PerOpUS returns the per-operation time in microseconds.
func (m Measurement) PerOpUS() float64 { return m.PerOp.Microseconds() }

// String summarizes the measurement.
func (m Measurement) String() string {
	return fmt.Sprintf("%v/op (N=%d, %d samples)", m.PerOp, m.N, len(m.Samples))
}

// BenchLoop measures the per-operation cost of op. The op callback must
// execute its operation n times; it is the moral equivalent of the
// hand-unrolled timing loops in lmbench's C sources. BenchLoop first
// auto-scales n so a batch spans both MinSampleTime and enough clock
// quanta, then takes Options.Samples timed batches.
func BenchLoop(c Clock, opts Options, op func(n int64) error) (Measurement, error) {
	return BenchLoopCtx(context.Background(), c, opts, op)
}

// BenchLoopCtx is BenchLoop with cancellation: the context is checked
// between calibration steps, before the warm-up batch, and between
// timed batches, so a cancelled or deadlined run stops at the next
// batch boundary rather than completing the full sample schedule —
// including a cancellation that lands mid-auto-scaling, which would
// otherwise still pay the (possibly huge) warm-up batch.
func BenchLoopCtx(ctx context.Context, c Clock, opts Options, op func(n int64) error) (Measurement, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return Measurement{}, err
	}
	probe := ProbeFrom(ctx)
	res := opts.Resolution
	if res <= 0 {
		res = EstimateResolution(c)
	}
	target := opts.MinSampleTime
	if floor := res.Mul(opts.ResolutionMultiple); floor > target {
		target = floor
	}

	// Calibrate the batch size. Every batch, timed or not, is one call
	// of batch at the current n.
	n := int64(1)
	batch := func() error { return op(n) }
	for {
		if err := ctx.Err(); err != nil {
			return Measurement{}, err
		}
		elapsed, err := Once(c, batch)
		if err != nil {
			return Measurement{}, err
		}
		if probe != nil {
			probe.Sample(elapsed, n, false)
		}
		if elapsed >= target {
			break
		}
		var next int64
		if elapsed <= 0 {
			next = n * 16
		} else {
			// Scale with 20% headroom; at least double to guarantee
			// progress against a noisy clock.
			next = int64(float64(n) * float64(target) / float64(elapsed) * 1.2)
			if next < n*2 {
				next = n * 2
			}
		}
		if next > opts.MaxN {
			return Measurement{}, ErrClockStuck
		}
		n = next
	}
	if probe != nil {
		probe.Calibrated(n, res)
	}

	if !opts.NoWarmup {
		// A cancellation that arrived during the auto-scaling phase must
		// not buy one more full batch: check before warming up.
		if err := ctx.Err(); err != nil {
			return Measurement{}, err
		}
		if err := batch(); err != nil {
			return Measurement{}, err
		}
	}

	samples := make([]ptime.Duration, 0, opts.Samples)
	best := ptime.Duration(0)
	for i := 0; i < opts.Samples; i++ {
		if err := ctx.Err(); err != nil {
			return Measurement{}, err
		}
		elapsed, err := Once(c, batch)
		if err != nil {
			return Measurement{}, err
		}
		if probe != nil {
			probe.Sample(elapsed, n, true)
		}
		samples = append(samples, elapsed)
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	m := Measurement{PerOp: best.DivN(n), N: n, Samples: samples}
	if rec := RecorderFrom(ctx); rec != nil {
		rec.Record(m)
	}
	return m, nil
}

// Once times a single invocation of op. It is the harness's one timed
// interval: BenchLoop times each batch through it, and operations that
// cannot meaningfully be batched (e.g. creating 1000 files is already a
// batch of its own) call it directly.
func Once(c Clock, op func() error) (ptime.Duration, error) {
	start := c.Now()
	if err := op(); err != nil {
		return 0, err
	}
	return c.Now() - start, nil
}

// MinOnce runs op `times` times through Once and returns the fastest
// result, matching lmbench's best-of-N policy for unbatchable
// operations (e.g. TCP connection establishment uses best of 20).
func MinOnce(c Clock, times int, op func() error) (ptime.Duration, error) {
	if times <= 0 {
		times = 1
	}
	best := ptime.Duration(0)
	for i := 0; i < times; i++ {
		d, err := Once(c, op)
		if err != nil {
			return 0, err
		}
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// MBPerSec converts a byte count moved in elapsed time to the paper's
// bandwidth unit. lmbench reports megabytes as 2^20 bytes.
func MBPerSec(bytes int64, elapsed ptime.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / elapsed.Seconds()
}
