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
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

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
	bind  *binding

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
	m := &Machine{clock: timing.NewWallClock(), bind: newBinding()}
	m.mem = &memOps{}
	osops, err := newOSOps(m.bind)
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	m.os = osops
	m.net = newNetOps(m.bind)
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
func (m *Machine) BindContext(ctx context.Context) { m.bind.set(ctx) }

// clientEnd is an end the binding can wake: a pipe end, a connection
// or an RPC client.
type clientEnd interface {
	io.Closer
	SetDeadline(t time.Time) error
}

// binding ties the bound context to every client end the backend has
// open. An end joins the moment it is opened and takes the bound
// deadline then, never per operation; cancelling the bound context
// sets an immediate deadline on every joined end, waking I/O already
// blocked in it. Server-side ends (the drain and echo goroutines' pipe
// ends, accepted connections, listeners) never join: a cancelled
// attempt must not kill a server the next experiment reuses.
type binding struct {
	// ctx is read lock-free, so a measured primitive pays one context
	// check per operation and nothing more.
	ctx atomic.Pointer[context.Context]

	mu sync.Mutex
	// gen invalidates the cancellation hook of a superseded binding.
	gen  uint64
	dl   time.Time
	ends map[clientEnd]struct{}
}

func newBinding() *binding {
	b := &binding{ends: map[clientEnd]struct{}{}}
	b.set(context.Background())
	return b
}

// context returns the bound context.
func (b *binding) context() context.Context { return *b.ctx.Load() }

// set binds ctx: its deadline (none clears the previous one) goes onto
// every joined end, and its cancellation forces an immediate deadline.
func (b *binding) set(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ctx.Store(&ctx)
	b.gen++
	gen := b.gen
	b.dl, _ = ctx.Deadline()
	b.deadline(b.dl)
	context.AfterFunc(ctx, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.gen == gen {
			b.deadline(time.Now())
		}
	})
}

// deadline sets t on every joined end. Callers hold b.mu.
func (b *binding) deadline(t time.Time) {
	for d := range b.ends {
		_ = d.SetDeadline(t)
	}
}

// join adds client ends as they are opened, giving them the bound
// deadline.
func (b *binding) join(ends ...clientEnd) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range ends {
		b.ends[d] = struct{}{}
		if !b.dl.IsZero() {
			_ = d.SetDeadline(b.dl)
		}
	}
}

// leave removes ends that are about to close.
func (b *binding) leave(ends ...clientEnd) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range ends {
		delete(b.ends, d)
	}
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
