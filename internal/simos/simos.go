// Package simos models the operating-system primitives the paper
// measures in §6.3-6.6: system-call entry, signal handling, process
// creation, context switching and pipes.
//
// Costs are constructed, not looked up, wherever the paper's analysis is
// structural: a fork is a syscall plus a per-page address-space copy
// plus two context switches; an exec adds image loading and shared-
// library startup; "/bin/sh -c" adds the shell's own exec plus a $PATH
// search. Pipe transfers are two system calls plus two bcopy passes
// through the simulated memory hierarchy ("the pipe write/read is
// typically implemented as a bcopy into the kernel from the writer and
// then a bcopy from the kernel to the reader"), so pipe bandwidth lands
// near half of bcopy bandwidth *emergently*. The context-switch ring
// sums per-process footprints through the shared cache simulator, which
// is what produces Figure 2's knee at the L2 size.
package simos

import (
	"fmt"

	"repro/internal/ptime"
	"repro/internal/sim"
	"repro/internal/simmem"
)

// Config holds the OS cost parameters for one machine profile.
type Config struct {
	// SyscallNS is the cost of one nontrivial kernel entry+exit, the
	// paper's write-to-/dev/null (Table 7).
	SyscallNS float64
	// SigInstallNS is the total cost of one sigaction call (Table 8's
	// "sigaction" column). It can be below SyscallNS: sigaction is a
	// lighter kernel entry than the deliberately nontrivial
	// write-to-/dev/null.
	SigInstallNS float64
	// SigHandlerNS is the total cost of sending the current process a
	// signal and dispatching it to the installed handler (Table 8's
	// "sig handler" column).
	SigHandlerNS float64
	// CtxSwitchNS is the bare scheduler+register cost of switching
	// between two runnable processes with no cache footprint.
	CtxSwitchNS float64
	// ProcPages is the resident page count of the benchmark process
	// that fork must duplicate (page tables plus touched pages).
	ProcPages int
	// PageCopyNS is the per-page cost of duplicating the address space
	// on fork (page-table entry copy; data pages are COW).
	PageCopyNS float64
	// ExecNS is the additional cost of execve: loading the new image
	// and, on systems with shared libraries, the dynamic-linker
	// startup the paper calls out as "tens of milliseconds".
	ExecNS float64
	// ShellNS is the additional cost of going through /bin/sh -c: the
	// shell's own fork+exec plus its $PATH search.
	ShellNS float64
	// PipeBufBytes is the kernel pipe buffer size (default 64K, the
	// transfer size the paper picked so syscall and context-switch
	// overhead "would not dominate").
	PipeBufBytes int
}

func (c Config) withDefaults() Config {
	if c.SyscallNS <= 0 {
		c.SyscallNS = 5000
	}
	if c.CtxSwitchNS <= 0 {
		c.CtxSwitchNS = 10000
	}
	if c.ProcPages <= 0 {
		c.ProcPages = 64
	}
	if c.PipeBufBytes <= 0 {
		c.PipeBufBytes = 64 << 10
	}
	return c
}

// OS is the simulated operating system for one machine.
type OS struct {
	cpu *sim.CPU
	clk *sim.Clock
	mem *simmem.Hierarchy
	cfg Config

	syscall    ptime.Duration
	sigInstall ptime.Duration
	sigHandler ptime.Duration
	ctxSwitch  ptime.Duration
	pageCopy   ptime.Duration
	exec       ptime.Duration
	shell      ptime.Duration

	sigInstalled bool
}

// New builds an OS charging time through cpu's clock and moving data
// through mem.
func New(cpu *sim.CPU, mem *simmem.Hierarchy, cfg Config) *OS {
	cfg = cfg.withDefaults()
	return &OS{
		cpu:        cpu,
		clk:        cpu.Clock(),
		mem:        mem,
		cfg:        cfg,
		syscall:    ptime.FromNS(cfg.SyscallNS),
		sigInstall: ptime.FromNS(cfg.SigInstallNS),
		sigHandler: ptime.FromNS(cfg.SigHandlerNS),
		ctxSwitch:  ptime.FromNS(cfg.CtxSwitchNS),
		pageCopy:   ptime.FromNS(cfg.PageCopyNS),
		exec:       ptime.FromNS(cfg.ExecNS),
		shell:      ptime.FromNS(cfg.ShellNS),
	}
}

// Reset clears process-visible kernel state (the installed signal
// handler), returning the OS to its post-boot condition.
func (o *OS) Reset() { o.sigInstalled = false }

// Config returns the defaulted configuration.
func (o *OS) Config() Config { return o.cfg }

// Mem returns the memory hierarchy the OS moves data through.
func (o *OS) Mem() *simmem.Hierarchy { return o.mem }

// Syscall charges one nontrivial kernel entry: the write of one word to
// /dev/null ("go through the system call table to write, verify the
// user area as readable, look up the file descriptor, call the vnode's
// write function, and then return").
func (o *OS) Syscall() { o.clk.Advance(o.syscall) }

// SyscallTime returns what one Syscall charges, for loops that fold
// their per-call entry cost into one memory-hierarchy pass.
func (o *OS) SyscallTime() ptime.Duration { return o.syscall }

// SignalInstall charges one sigaction call.
func (o *OS) SignalInstall() {
	o.clk.Advance(o.sigInstall)
	o.sigInstalled = true
}

// SignalCatch charges sending a signal to the current process and
// dispatching it to the installed handler (no context switch: "the
// signal goes to the same process that generated the signal").
// It returns an error if no handler is installed.
func (o *OS) SignalCatch() error {
	if !o.sigInstalled {
		return fmt.Errorf("simos: SignalCatch without SignalInstall")
	}
	o.clk.Advance(o.sigHandler)
	return nil
}

// ContextSwitch charges the bare cost of switching to another process.
// Cache-footprint effects are not charged here; they emerge when the
// switched-to process touches its own working set through the shared
// hierarchy (see Ring).
func (o *OS) ContextSwitch() { o.clk.Advance(o.ctxSwitch) }

// ForkExit charges the simple-process-creation ladder rung of Table 9:
// fork a child that immediately exits, parent waits. Components: the
// fork syscall with its per-page address-space duplication, the child's
// exit and the parent's wait syscalls, and two context switches
// (parent->child->parent).
func (o *OS) ForkExit() {
	o.clk.Advance(o.forkCost())
}

func (o *OS) forkCost() ptime.Duration {
	d := o.syscall                              // fork
	d += o.pageCopy.Mul(int64(o.cfg.ProcPages)) // duplicate address space
	d += o.syscall                              // child exit
	d += o.syscall                              // parent wait
	d += o.ctxSwitch.Mul(2)                     // parent->child->parent
	return d
}

// ForkExecExit charges Table 9's second rung: fork plus exec of a tiny
// "hello world" program that exits.
func (o *OS) ForkExecExit() {
	o.clk.Advance(o.forkCost() + o.syscall + o.exec)
}

// ForkShExit charges Table 9's third rung: fork plus exec of
// "/bin/sh -c prog". The shell searches $PATH and — with a single
// command under -c — execs the program directly in place ("the cost of
// asking the shell to go look for the program is quite large,
// frequently ten times as expensive as just creating a new process").
func (o *OS) ForkShExit() {
	// One fork, an exec of the shell, the shell's startup and $PATH
	// search, then an exec of the target program.
	o.clk.Advance(o.forkCost() + o.syscall + o.exec + o.shell + o.syscall + o.exec)
}
