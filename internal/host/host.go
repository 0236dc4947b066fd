// Package host implements core.Machine against the real operating
// system, making the suite a usable lmbench port for the machine it
// runs on.
//
// Known deviations from the C original (all recorded in DESIGN.md §8):
// Go cannot fork, so the process-creation ladder spawns
// /proc/self/exe, /bin/true and "/bin/sh -c true"; the context-switch
// ring pins goroutines to OS threads and connects them with real
// pipes, so the kernel schedules threads rather than full processes;
// and the Go runtime (GC, scheduler) adds noise the paper's
// calibration band warns about. Absolute host numbers are real
// measurements; cross-era comparisons belong to the simulated
// machines.
package host

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/timing"
)

// ChildEnv is the sentinel environment variable that makes a re-exec
// of the current binary exit immediately (the "fork & exit" child).
const ChildEnv = "LMBENCH_GO_CHILD"

// MaybeChild must be called at the top of main() (and TestMain) of any
// binary that uses the host backend's process-creation benchmarks: if
// the process is a benchmark child it exits immediately.
func MaybeChild() {
	if os.Getenv(ChildEnv) != "" {
		os.Exit(0)
	}
}

// Machine is the host backend.
type Machine struct {
	clock *timing.WallClock

	mem  *memOps
	os   *osOps
	net  *netOps
	fs   *fsOps
	disk *diskOps
}

var _ core.Machine = (*Machine)(nil)

// New builds a host machine. Resources (temp dir, loopback servers,
// device handles) are created lazily by the op groups; Close releases
// them.
func New() (*Machine, error) {
	m := &Machine{clock: timing.NewWallClock()}
	m.mem = &memOps{}
	osops, err := newOSOps()
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	m.os = osops
	m.net = newNetOps()
	fsops, err := newFSOps()
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	m.fs = fsops
	m.disk = newDiskOps(fsops.dir) // nil if O_DIRECT unavailable
	return m, nil
}

// Close releases all backend resources.
func (m *Machine) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	keep(m.os.close())
	keep(m.net.close())
	keep(m.fs.close())
	if m.disk != nil {
		keep(m.disk.close())
	}
	return first
}

// BindContext implements core.ContextBinder: the context's deadline
// and cancellation propagate into the backend's blocking primitives —
// pipe and socket I/O wakes via deadlines, child processes are spawned
// under the context, and signal waits select on it. The suite
// scheduler binds the per-experiment context before each attempt and
// clears it (context.Background) afterwards.
func (m *Machine) BindContext(ctx context.Context) {
	m.net.bindContext(ctx)
	m.os.bindContext(ctx)
}

var _ core.ContextBinder = (*Machine)(nil)

// Name implements core.Machine.
func (m *Machine) Name() string { return "host" }

// Clock implements core.Machine.
func (m *Machine) Clock() timing.Clock { return m.clock }

// Mem implements core.Machine.
func (m *Machine) Mem() core.MemOps { return m.mem }

// OS implements core.Machine.
func (m *Machine) OS() core.OSOps { return m.os }

// Net implements core.Machine.
func (m *Machine) Net() core.NetOps { return m.net }

// FS implements core.Machine.
func (m *Machine) FS() core.FSOps { return m.fs }

// Disk implements core.Machine.
func (m *Machine) Disk() core.DiskOps {
	if m.disk == nil {
		return nil
	}
	return m.disk
}
