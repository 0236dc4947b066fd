package core

import (
	"context"
	"fmt"

	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

func entry(m Machine, bench, unit string, v float64, attrs map[string]string) results.Entry {
	return results.Entry{Benchmark: bench, Machine: m.Name(), Unit: unit, Scalar: v, Attrs: attrs}
}

// loop wraps a single-op primitive into a BenchLoop body.
func loop(op func() error) func(n int64) error {
	return func(n int64) error {
		for i := int64(0); i < n; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	}
}

// row is one scalar benchmark: op is one operation of the benchmark
// key, reported in unit ("MB/s" over the bytes one op moves, or the
// per-op time in "us", "ms" or "ns").
type row struct {
	key   string
	unit  string
	bytes int64
	attrs map[string]string
	op    func() error
}

// measure is the harness step of every scalar benchmark BenchLoop
// times: it times each row's op, in order, and reports one entry per
// row in the row's unit. A row it cannot convert is refused before it
// is timed; a failed row fails the call, wrapped with the row's key,
// and returns no entries.
func measure(ctx context.Context, m Machine, opts Options, rows ...row) ([]results.Entry, error) {
	var out []results.Entry
	for _, r := range rows {
		var convert func(ptime.Duration) float64
		switch {
		case r.unit == "MB/s" && r.bytes > 0:
			convert = func(d ptime.Duration) float64 { return timing.MBPerSec(r.bytes, d) }
		case r.unit == "us":
			convert = ptime.Duration.Microseconds
		case r.unit == "ms":
			convert = ptime.Duration.Milliseconds
		case r.unit == "ns":
			convert = ptime.Duration.Nanoseconds
		default:
			return nil, fmt.Errorf("%s: no conversion to %q for %d bytes per op", r.key, r.unit, r.bytes)
		}
		meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(r.op))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.key, err)
		}
		out = append(out, entry(m, r.key, r.unit, convert(meas.PerOp), r.attrs))
	}
	return out, nil
}
