package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ptime"
	"repro/internal/timing"
)

// cloneableMachine is a Machine with Clone, reading clk.
type cloneableMachine struct {
	Machine
	clk timing.Clock
}

func (m cloneableMachine) Clock() timing.Clock     { return m.clk }
func (m cloneableMachine) Clone() (Machine, error) { return m, nil }

// virtualClock stands still; wallClock reports real time.
type virtualClock struct{}

func (virtualClock) Now() ptime.Duration { return 0 }

type wallClock struct{ virtualClock }

func (wallClock) RealTime() bool { return true }

// TestPoolWidth pins the one place the pool's width is decided: a
// cloneable virtual-clock machine gets GOMAXPROCS, and a machine that
// cannot clone or reads real time runs serially at any GOMAXPROCS.
func TestPoolWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	cases := []struct {
		name string
		m    Machine
		want int
	}{
		{"cloneable", cloneableMachine{clk: virtualClock{}}, 3},
		{"real-time", cloneableMachine{clk: wallClock{}}, 1},
		{"non-cloner", struct{ Machine }{cloneableMachine{clk: virtualClock{}}}, 1},
	}
	for _, c := range cases {
		if got := poolWidth(c.m); got != c.want {
			t.Errorf("%s: width %d, want %d", c.name, got, c.want)
		}
	}
	runtime.GOMAXPROCS(1)
	if got := poolWidth(cases[0].m); got != 1 {
		t.Errorf("cloneable at GOMAXPROCS=1: width %d, want 1", got)
	}
}

// TestPoolNestedSlots: a pool nested in a position — a sweep inside a
// unit — draws on its parent's slots, so the units and their sweeps
// compute at most GOMAXPROCS positions at once, and a sweep left alone
// widens to GOMAXPROCS.
func TestPoolNestedSlots(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var running, peak atomic.Int64
	compute := func() {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
	}
	m := cloneableMachine{clk: virtualClock{}}
	run := func(ctx context.Context, n int, eval evalFunc) error {
		l := machineLane(m, func(Machine) (evalFunc, error) { return eval, nil })
		_, err := positions{idx: seq(n), lane: func(int) *lane { return l }}.run(ctx, 3)
		return err
	}
	sweep := func(ctx context.Context) error {
		return run(ctx, 12, func(context.Context, int) error { compute(); return nil })
	}
	units := func(ctx context.Context, i int) error {
		compute()
		return sweep(ctx)
	}
	if err := run(context.Background(), 6, units); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("units and their sweeps computed %d positions at once, want at most 3", p)
	}
	peak.Store(0)
	if err := sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 3 {
		t.Errorf("a sweep alone computed at most %d positions at once, want 3", p)
	}
}
