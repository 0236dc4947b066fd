package timing

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ptime"
	"repro/internal/sim"
)

// countingClock wraps opClock and counts raw reads.
type countingClock struct {
	opClock
	reads int
}

func (c *countingClock) Now() ptime.Duration {
	c.reads++
	return c.opClock.Now()
}

// exactClock is a virtual clock declaring its own resolution.
type exactClock struct {
	countingClock
	res ptime.Duration
}

func (c *exactClock) ExactResolution() ptime.Duration { return c.res }

func TestEstimateResolutionExactClockSkipsProbing(t *testing.T) {
	clk := &exactClock{res: 7}
	if got := EstimateResolution(clk); got != 7 {
		t.Errorf("resolution = %v, want 7", got)
	}
	if clk.reads != 0 {
		t.Errorf("exact clock was probed %d times; ExactResolver must short-circuit", clk.reads)
	}
	// The simulator's clock advertises exactness: one ptime unit, no
	// reads burned. This is what spares every simulated BenchLoop the
	// ~2M-read probe of a clock that cannot tick while probed.
	if got := EstimateResolution(&sim.Clock{}); got != 1 {
		t.Errorf("sim clock resolution = %v, want 1", got)
	}
}

// steppingClock advances by step once every k raw reads, emulating a
// very coarse quantized wall clock where transitions are many reads
// apart.
type steppingClock struct {
	now   ptime.Duration
	step  ptime.Duration
	k     int
	reads int
}

func (c *steppingClock) Now() ptime.Duration {
	c.reads++
	if c.reads%c.k == 0 {
		c.now += c.step
	}
	return c.now
}

func TestEstimateResolutionCapsProbeSpan(t *testing.T) {
	// A 100ms quantum, 1000 reads apart: the estimate is the quantum
	// after the very first delta; waiting out four full quanta buys
	// nothing. The span cap must stop probing once ≥250ms of clock time
	// is covered (3 transitions here) instead of collecting all four.
	clk := &steppingClock{step: 100 * ptime.Millisecond, k: 1000}
	got := EstimateResolution(clk)
	if got != 100*ptime.Millisecond {
		t.Errorf("resolution = %v, want 100ms", got)
	}
	if clk.reads > 3500 {
		t.Errorf("probe used %d reads; span cap should stop near 3000", clk.reads)
	}
}

func TestEstimateResolutionStuckClockReadBudget(t *testing.T) {
	// A stuck clock without the ExactResolver capability still
	// terminates via the read budget and is treated as exact.
	clk := &countingClock{}
	if got := EstimateResolution(clk); got != 1 {
		t.Errorf("stuck clock resolution = %v, want 1", got)
	}
	if clk.reads > 2_000_001 {
		t.Errorf("probe used %d reads; budget is 2M", clk.reads)
	}
}

func TestQuantizedClockNegativeStepPassthrough(t *testing.T) {
	base := &opClock{}
	q := &QuantizedClock{Base: base, Step: -5 * ptime.Millisecond}
	var prev ptime.Duration
	for i := 0; i < 10; i++ {
		base.advance(3 * ptime.Millisecond)
		now := q.Now()
		if now != base.now {
			t.Fatalf("negative step must pass through: got %v, base %v", now, base.now)
		}
		if now < prev {
			t.Fatalf("clock went backwards: %v after %v", now, prev)
		}
		prev = now
	}
	// Step zero likewise (and no mod-by-zero panic).
	q.Step = 0
	if got := q.Now(); got != base.now {
		t.Errorf("zero step: got %v, want %v", got, base.now)
	}
}

// TestBenchLoopCancelDuringCalibration pins prompt cancellation inside
// the auto-scaling phase: when the context dies during the calibration
// batch that satisfies the target, BenchLoopCtx must return ctx.Err()
// without running the warm-up batch (one more op(n) on a stalled
// machine could block for the full batch) and without starting another
// timed batch.
func TestBenchLoopCancelDuringCalibration(t *testing.T) {
	clk := &countingClock{}
	ctx, cancel := context.WithCancel(context.Background())
	calls, readsAtCancel := 0, 0
	_, err := BenchLoopCtx(ctx, clk, Options{MinSampleTime: ptime.Microsecond, Samples: 5}, func(n int64) error {
		calls++
		if calls == 1 {
			// Too short: forces a second calibration batch.
			clk.advance(10 * ptime.Nanosecond)
			return nil
		}
		// This batch satisfies the target — and the run is cancelled
		// while it executes.
		clk.advance(10 * ptime.Microsecond)
		cancel()
		readsAtCancel = clk.reads
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 2 {
		t.Errorf("op ran %d times, want 2 (no warm-up batch after cancellation)", calls)
	}
	// Only the in-flight batch's closing reading may follow the
	// cancellation; no further batch may start.
	if clk.reads > readsAtCancel+1 {
		t.Errorf("%d clock reads after cancellation, want <= 1", clk.reads-readsAtCancel)
	}
}

// orderingProbe records the interleaving of clock reads, op batches and
// probe calls to prove the out-of-band guarantee: no probe call ever
// lands inside a timed interval (between a batch's opening and closing
// clock readings).
type orderingProbe struct {
	log *[]string
}

func (p orderingProbe) Calibrated(n int64, res ptime.Duration)   { *p.log = append(*p.log, "calibrated") }
func (p orderingProbe) Sample(d ptime.Duration, n int64, _ bool) { *p.log = append(*p.log, "sample") }

type loggingClock struct {
	opClock
	log *[]string
}

func (c *loggingClock) Now() ptime.Duration {
	*c.log = append(*c.log, "read")
	return c.opClock.now
}

func TestProbeCallsAreOutOfBand(t *testing.T) {
	var log []string
	clk := &loggingClock{log: &log}
	ctx := WithProbe(context.Background(), orderingProbe{log: &log})
	_, err := BenchLoopCtx(ctx, clk, Options{
		MinSampleTime: ptime.Microsecond, Samples: 3, NoWarmup: true, Resolution: 1,
	}, func(n int64) error {
		log = append(log, "op")
		clk.opClock.chargeOp(500*ptime.Nanosecond, n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("no activity logged")
	}
	// Every batch is the contiguous triple read,op,read: anything
	// (sample, calibrated) appearing between a batch's readings would
	// be in-band perturbation.
	for i, e := range log {
		if e != "op" {
			continue
		}
		if i == 0 || log[i-1] != "read" || i+1 >= len(log) || log[i+1] != "read" {
			t.Fatalf("batch at %d not bracketed by reads: %v", i, log)
		}
	}
	// And the probe did fire.
	samples, calibrated := 0, 0
	for _, e := range log {
		switch e {
		case "sample":
			samples++
		case "calibrated":
			calibrated++
		}
	}
	if samples < 3 || calibrated != 1 {
		t.Errorf("probe saw %d samples, %d calibrations; want >=3 and 1", samples, calibrated)
	}
}
