package core_test

// Tests for the measurement quality gate: a deliberately noisy fake
// clock makes an experiment's first attempt exceed MaxRSD, and the
// suite must emit a "quality" event, re-measure, and stamp the
// accepted entries with quality.* attributes — or flag the result when
// the noise never calms. Also the retry-backoff satellites: the sleep
// must yield to cancellation and the doubling must saturate.

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

// jitterClock is a manual virtual clock: operations charge time to it
// explicitly, like the simulator's clock.
type jitterClock struct {
	mu  sync.Mutex
	now ptime.Duration
}

func (c *jitterClock) Now() ptime.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *jitterClock) charge(d ptime.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// noisyExperiment measures one op on its own jitterClock. Attempts up
// to calmAfter charge a per-batch cost that jumps 3x on most batches —
// relative spread 2.0 — while later attempts charge a steady cost,
// spread 0. The experiment records how many attempts ran.
func noisyExperiment(id string, calmAfter int, attempts *int) core.Experiment {
	return core.Experiment{
		ID: id, Title: "synthetic noisy experiment", Benchmarks: []string{id},
		Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
			*attempts++
			noisy := *attempts <= calmAfter
			clk := &jitterClock{}
			batch := 0
			meas, err := timing.BenchLoopCtx(ctx, clk, timing.Options{
				MinSampleTime: ptime.Microsecond, Samples: 5,
				Resolution: ptime.Nanosecond, NoWarmup: true,
			}, func(n int64) error {
				batch++
				// Noisy attempts run every third batch 3x faster, so any
				// window of 5 timed samples holds one or two fast batches
				// among slow ones: min is low, the median high, and the
				// relative spread (median-min)/min is 2.0.
				per := 300 * ptime.Nanosecond
				if !noisy || batch%3 == 0 {
					per = 100 * ptime.Nanosecond
				}
				clk.charge(per.Mul(n))
				return nil
			})
			if err != nil {
				return nil, err
			}
			return []results.Entry{{
				Benchmark: id, Machine: m.Name(), Unit: "ns", Scalar: meas.PerOpNS(),
			}}, nil
		},
	}
}

func qualitySuite(t *testing.T, exp core.Experiment, maxRSD float64, qualityRetries int) (*recorderSink, *results.DB) {
	t.Helper()
	rec := &recorderSink{}
	db := &results.DB{}
	s := &core.Suite{
		M: simMachine(t, "Linux/i686"), Opts: smallOpts(), Events: rec,
		Experiments: []core.Experiment{exp},
		MaxRSD:      maxRSD, QualityRetries: qualityRetries,
	}
	if _, err := s.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	return rec, db
}

func TestQualityGateRemeasuresNoisyExperiment(t *testing.T) {
	attempts := 0
	rec, db := qualitySuite(t, noisyExperiment("noisy1", 1, &attempts), 0.05, 0)

	if attempts != 2 {
		t.Fatalf("experiment ran %d times, want 2 (noisy, then calm)", attempts)
	}
	quality := rec.byKind(core.ExperimentQuality)
	if len(quality) != 1 {
		t.Fatalf("quality events = %d, want 1", len(quality))
	}
	if quality[0].Spread <= 0.05 {
		t.Errorf("quality event spread = %v, want > MaxRSD", quality[0].Spread)
	}
	if quality[0].Samples != 5 {
		t.Errorf("quality event samples = %d, want 5", quality[0].Samples)
	}
	if n := len(rec.byKind(core.ExperimentStarted)); n != 2 {
		t.Errorf("started events = %d, want 2", n)
	}
	fin := rec.byKind(core.ExperimentFinished)
	if len(fin) != 1 || fin[0].Attempt != 2 {
		t.Fatalf("finished = %+v, want one event on attempt 2", fin)
	}

	e, ok := db.Get("noisy1", "Linux/i686")
	if !ok {
		t.Fatal("entry missing")
	}
	if got := e.Attrs["quality.samples"]; got != "5" {
		t.Errorf("quality.samples = %q, want 5", got)
	}
	spread, err := strconv.ParseFloat(e.Attrs["quality.spread"], 64)
	if err != nil || spread > 0.05 {
		t.Errorf("quality.spread = %q (err %v), want a calm value <= 0.05", e.Attrs["quality.spread"], err)
	}
	if got := e.Attrs["quality.outliers"]; got != "0" {
		t.Errorf("quality.outliers = %q, want 0", got)
	}
	if _, flagged := e.Attrs["quality.flagged"]; flagged {
		t.Error("calm accepted result was flagged")
	}
}

// TestQualityGateFlagsPersistentNoise: when re-measurement never calms
// the experiment, the gate accepts the last attempt but marks it.
func TestQualityGateFlagsPersistentNoise(t *testing.T) {
	attempts := 0
	rec, db := qualitySuite(t, noisyExperiment("noisy2", 1<<30, &attempts), 0.05, 1)

	if attempts != 2 {
		t.Fatalf("experiment ran %d times, want 2 (QualityRetries=1)", attempts)
	}
	if n := len(rec.byKind(core.ExperimentQuality)); n != 1 {
		t.Errorf("quality events = %d, want 1", n)
	}
	e, ok := db.Get("noisy2", "Linux/i686")
	if !ok {
		t.Fatal("entry missing")
	}
	if got := e.Attrs["quality.flagged"]; got != "true" {
		t.Errorf("quality.flagged = %q, want true", got)
	}
	spread, err := strconv.ParseFloat(e.Attrs["quality.spread"], 64)
	if err != nil || spread <= 0.05 {
		t.Errorf("quality.spread = %q (err %v), want the noisy spread", e.Attrs["quality.spread"], err)
	}
}

// TestQualityGateOffByDefault: with MaxRSD zero the gate never runs —
// no re-measurement, no events, no attrs — so existing runs encode
// exactly as before.
func TestQualityGateOffByDefault(t *testing.T) {
	attempts := 0
	rec, db := qualitySuite(t, noisyExperiment("noisy3", 1<<30, &attempts), 0, 0)

	if attempts != 1 {
		t.Errorf("experiment ran %d times, want 1", attempts)
	}
	if n := len(rec.byKind(core.ExperimentQuality)); n != 0 {
		t.Errorf("quality events = %d, want 0", n)
	}
	e, ok := db.Get("noisy3", "Linux/i686")
	if !ok {
		t.Fatal("entry missing")
	}
	if len(e.Attrs) != 0 {
		t.Errorf("gate off but entry has attrs %v", e.Attrs)
	}
}

// TestQualityBudget: the gate's effective budget is the one the suite
// spends — a persistently noisy experiment under the default budget
// runs 1 + QualityBudget(maxRSD, 0) times — and the unit cache keys by
// the same function.
func TestQualityBudget(t *testing.T) {
	for _, c := range []struct {
		maxRSD        float64
		retries, want int
	}{{0, 0, 0}, {0, 3, 0}, {-1, 3, 0}, {0.05, 0, 2}, {0.05, 1, 1}, {0.05, -1, -1}} {
		if got := core.QualityBudget(c.maxRSD, c.retries); got != c.want {
			t.Errorf("QualityBudget(%v, %d) = %d, want %d", c.maxRSD, c.retries, got, c.want)
		}
	}
	attempts := 0
	qualitySuite(t, noisyExperiment("noisy4", 1<<30, &attempts), 0.05, 0)
	if want := 1 + core.QualityBudget(0.05, 0); attempts != want {
		t.Errorf("experiment ran %d times, want %d", attempts, want)
	}
}

// TestRetryBackoffHonorsCancellation: a run sleeping out a long retry
// backoff must wake as soon as the context is cancelled, not after the
// backoff elapses.
func TestRetryBackoffHonorsCancellation(t *testing.T) {
	boom := errors.New("boom")
	s := &core.Suite{
		M: simMachine(t, "Linux/i686"), Opts: smallOpts(),
		Experiments: []core.Experiment{{
			ID: "always_fails", Title: "fails", Benchmarks: []string{"x"},
			Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
				return nil, boom
			},
		}},
		Retries: 1, RetryBackoff: 10 * time.Minute,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx, &results.DB{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run kept sleeping through its retry backoff after cancellation")
	}
}
