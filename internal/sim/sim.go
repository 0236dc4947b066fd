// Package sim provides the foundation of the simulated machine backend:
// an exact virtual clock and a simple processor cost model.
//
// The paper's testbed (Table 1) is 1993-95 hardware that no longer
// exists; per DESIGN.md we substitute a parameterized machine simulator.
// Every simulated component (caches, OS, network, disk) charges time to
// one shared Clock; the measurement harness reads that clock through the
// same interface it uses for real time, so benchmark logic is identical
// across backends.
package sim

import (
	"fmt"

	"repro/internal/ptime"
)

// Clock is an exact virtual time source. It only advances when
// simulated work is charged to it.
type Clock struct {
	now ptime.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() ptime.Duration { return c.now }

// ExactResolution implements timing.ExactResolver: the virtual clock is
// exact to one ptime unit and never advances on a read, so the harness
// skips resolution probing entirely (probing a clock that cannot tick
// during the probe would burn ~2M reads to learn exactly this value).
func (c *Clock) ExactResolution() ptime.Duration { return 1 }

// Advance charges d of simulated time. Negative charges are ignored so
// a buggy cost model cannot make time flow backwards.
func (c *Clock) Advance(d ptime.Duration) {
	if d > 0 {
		c.now += d
	}
}

// CPUConfig describes the processor cost model.
type CPUConfig struct {
	// MHz is the clock rate, as in Table 1.
	MHz float64
	// IssueWidth is how many simple ALU operations retire per cycle
	// (superscalar width). Loads are never overlapped here: lmbench
	// deliberately measures back-to-back dependent loads.
	IssueWidth int
}

func (c CPUConfig) withDefaults() CPUConfig {
	if c.MHz <= 0 {
		c.MHz = 100
	}
	if c.IssueWidth <= 0 {
		c.IssueWidth = 1
	}
	return c
}

// CPU charges instruction-execution time to a Clock.
type CPU struct {
	clk   *Clock
	cfg   CPUConfig
	cycle ptime.Duration
}

// NewCPU builds a CPU charging time to clk.
func NewCPU(clk *Clock, cfg CPUConfig) *CPU {
	cfg = cfg.withDefaults()
	return &CPU{clk: clk, cfg: cfg, cycle: ptime.FromNS(1000 / cfg.MHz)}
}

// CycleTime returns the duration of one processor cycle.
func (c *CPU) CycleTime() ptime.Duration { return c.cycle }

// MHz returns the configured clock rate.
func (c *CPU) MHz() float64 { return c.cfg.MHz }

// Cycles charges n processor cycles.
func (c *CPU) Cycles(n int64) { c.clk.Advance(c.cycle.Mul(n)) }

// Ops charges n simple ALU operations, packed IssueWidth per cycle.
func (c *CPU) Ops(n int64) {
	w := int64(c.cfg.IssueWidth)
	cycles := (n + w - 1) / w
	c.Cycles(cycles)
}

// OpTime returns the time n simple operations take without charging it.
func (c *CPU) OpTime(n int64) ptime.Duration {
	w := int64(c.cfg.IssueWidth)
	return c.cycle.Mul((n + w - 1) / w)
}

// Clock returns the CPU's clock.
func (c *CPU) Clock() *Clock { return c.clk }

// String describes the CPU.
func (c *CPU) String() string {
	return fmt.Sprintf("%.0fMHz (cycle %v, issue %d)", c.cfg.MHz, c.cycle, c.cfg.IssueWidth)
}
