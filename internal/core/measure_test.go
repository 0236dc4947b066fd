package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/ptime"
	"repro/internal/timing"
)

// stepClock advances only when an op charges it.
type stepClock struct{ now ptime.Duration }

func (c *stepClock) Now() ptime.Duration { return c.now }

// clockMachine is a Machine with only a name and a clock.
type clockMachine struct {
	Machine
	clk timing.Clock
}

func (clockMachine) Name() string          { return "fake" }
func (m clockMachine) Clock() timing.Clock { return m.clk }

// measureRig returns a machine on a step clock, options that time it,
// an op that costs 1.5 ms, and the count of its calls.
func measureRig() (Machine, Options, func() error, *int) {
	clk := &stepClock{}
	calls := 0
	op := func() error {
		calls++
		clk.now += 1500 * ptime.Microsecond
		return nil
	}
	opts := Options{Timing: timing.Options{
		MinSampleTime: 10 * ptime.Millisecond, Samples: 2,
		Resolution: ptime.Nanosecond, NoWarmup: true,
	}}
	return clockMachine{clk: clk}, opts, op, &calls
}

// TestMeasureConvertsEachUnit: one op costs 1.5 ms and moves 3 MB
// (2^20-byte megabytes), so each unit reads a different number — a
// swap of any two conversions, or decimal megabytes (2097.152 MB/s),
// fails here.
func TestMeasureConvertsEachUnit(t *testing.T) {
	m, opts, op, _ := measureRig()
	attrs := map[string]string{"size": "3M"}
	got, err := measure(context.Background(), m, opts,
		row{"bw", "MB/s", 3 << 20, attrs, op},
		row{key: "lat.us", unit: "us", op: op},
		row{key: "lat.ms", unit: "ms", op: op},
		row{key: "lat.ns", unit: "ns", op: op},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		key, unit string
		v         float64
	}{
		{"bw", "MB/s", 2000}, {"lat.us", "us", 1500}, {"lat.ms", "ms", 1.5}, {"lat.ns", "ns", 1.5e6},
	}
	if len(got) != len(want) {
		t.Fatalf("entries = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		e := got[i]
		if e.Benchmark != w.key || e.Unit != w.unit || e.Machine != "fake" || math.Abs(e.Scalar-w.v) > 1e-9*w.v {
			t.Errorf("entry %d = %s %v %s on %s, want %s %v %s", i, e.Benchmark, e.Scalar, e.Unit, e.Machine, w.key, w.v, w.unit)
		}
	}
	if got[0].Attrs["size"] != "3M" || got[1].Attrs != nil {
		t.Errorf("attrs = %v, %v; want the row's own", got[0].Attrs, got[1].Attrs)
	}
}

// TestMeasureFailures: a failing op fails the call under its row's key
// and drops the rows measured before it; an unknown unit and an MB/s
// row that moves no bytes are refused before anything is timed.
func TestMeasureFailures(t *testing.T) {
	m, opts, op, calls := measureRig()
	boom := errors.New("boom")
	got, err := measure(context.Background(), m, opts,
		row{key: "ok", unit: "us", op: op},
		row{key: "bad", unit: "us", op: func() error { return boom }},
	)
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "bad: ") || got != nil {
		t.Errorf("failing row: entries %v, err %v; want none and an error naming bad", got, err)
	}
	for _, r := range []row{
		{key: "furlongs", unit: "furlongs/fortnight", op: op},
		{key: "nobytes", unit: "MB/s", op: op},
	} {
		*calls = 0
		got, err := measure(context.Background(), m, opts, r)
		if err == nil || !strings.HasPrefix(err.Error(), r.key+": ") || got != nil || *calls != 0 {
			t.Errorf("%s: entries %v, err %v, %d ops timed; want a refusal naming the row before timing", r.key, got, err, *calls)
		}
	}
}
