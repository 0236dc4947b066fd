package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/ptime"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Error("new clock should read 0")
	}
	c.Advance(5 * ptime.Nanosecond)
	c.Advance(3 * ptime.Nanosecond)
	if c.Now() != 8*ptime.Nanosecond {
		t.Errorf("Now = %v, want 8ns", c.Now())
	}
	c.Advance(-100) // ignored
	if c.Now() != 8*ptime.Nanosecond {
		t.Error("negative advance must be ignored")
	}
}

func TestCPUCycleTime(t *testing.T) {
	var c Clock
	cpu := NewCPU(&c, CPUConfig{MHz: 300})
	// 300 MHz -> 3.333ns cycle (the paper's DEC 8400 example).
	if got := cpu.CycleTime(); got != ptime.FromNS(1000.0/300) {
		t.Errorf("cycle = %v", got)
	}
	cpu.Cycles(3)
	if c.Now() != cpu.CycleTime().Mul(3) {
		t.Errorf("3 cycles = %v", c.Now())
	}
}

func TestCPUDefaults(t *testing.T) {
	var c Clock
	cpu := NewCPU(&c, CPUConfig{})
	if cpu.MHz() != 100 {
		t.Errorf("default MHz = %v", cpu.MHz())
	}
	if cpu.CycleTime() != 10*ptime.Nanosecond {
		t.Errorf("default cycle = %v", cpu.CycleTime())
	}
	if cpu.String() == "" {
		t.Error("empty String")
	}
	if cpu.Clock() != &c {
		t.Error("Clock accessor broken")
	}
}

func TestCPUIssueWidth(t *testing.T) {
	var c Clock
	cpu := NewCPU(&c, CPUConfig{MHz: 100, IssueWidth: 4})
	cpu.Ops(10) // ceil(10/4) = 3 cycles = 30ns
	if c.Now() != 30*ptime.Nanosecond {
		t.Errorf("Ops(10) at width 4 = %v, want 30ns", c.Now())
	}
	if got := cpu.OpTime(8); got != 20*ptime.Nanosecond {
		t.Errorf("OpTime(8) = %v, want 20ns", got)
	}
	before := c.Now()
	_ = cpu.OpTime(100)
	if c.Now() != before {
		t.Error("OpTime must not charge the clock")
	}
}

// Property: the clock is monotonic under arbitrary advance sequences.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(deltas []int32) bool {
		var c Clock
		last := c.Now()
		for _, d := range deltas {
			c.Advance(ptime.Duration(d))
			if c.Now() < last {
				return false
			}
			last = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Ops(a) + Ops(b) >= Ops(a+b) in time (packing can only help
// when batched).
func TestQuickOpsPacking(t *testing.T) {
	f := func(aRaw, bRaw uint16, wRaw uint8) bool {
		a, b := int64(aRaw%1000), int64(bRaw%1000)
		w := int(wRaw%8) + 1
		var c1, c2 Clock
		cpu1 := NewCPU(&c1, CPUConfig{MHz: 100, IssueWidth: w})
		cpu2 := NewCPU(&c2, CPUConfig{MHz: 100, IssueWidth: w})
		cpu1.Ops(a)
		cpu1.Ops(b)
		cpu2.Ops(a + b)
		return c1.Now() >= c2.Now()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
