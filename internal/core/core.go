// Package core defines the backend-neutral machine interface and
// implements every lmbench benchmark on top of it.
//
// The benchmarks — their sizing rules, warm-up policy, loop structure
// and reporting — live here exactly once. A Machine supplies the
// primitive operations (move bytes, chase pointers, enter the kernel,
// pass tokens, create files); the two implementations are the simulated
// machines in internal/machines and the real host in internal/host.
// Because the harness reads time only through timing.Clock, the same
// benchmark code measures a virtual 1995 DEC Alpha and the live Linux
// box it runs on.
//
// Each measurement rule has one copy: every timed interval is
// timing.Once (BenchLoop times its batches through it), every BenchLoop
// body is loop(op), every scalar BenchLoop benchmark is a row that
// measure times and converts to its unit, every point of the Figure-1
// and §7 memory-variant chase sweeps and of AutoSize's probe is
// measured by chaseSweep, and every latency staircase (Table 6, the
// sweep planner, the TLB probe) is segmented by analysis.Plateaus.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/ptime"
	"repro/internal/timing"
)

// ErrUnsupported is returned by primitives a backend cannot provide
// (e.g. raw-disk access or remote network media on the host backend).
// The suite records such benchmarks as missing rather than failing.
var ErrUnsupported = errors.New("core: operation not supported by this backend")

// Region is an opaque handle to an allocated memory region of a
// backend (a simulated physical range or a real slice).
type Region interface{}

// Chase is a prepared pointer-chase list (§6.2): Walk performs n
// dependent loads, continuing around the circular list.
type Chase interface {
	Walk(n int64) error
	// Length returns the number of elements in one lap.
	Length() int64
}

// MemOps are the memory primitives behind the bandwidth suite (§5.1)
// and the memory-latency benchmark (§6.2).
type MemOps interface {
	// Alloc reserves a region of at least size bytes.
	Alloc(size int64) (Region, error)
	// Copy is the portable libc-style bcopy; on machines whose C
	// library uses hardware assists (SPARC V9 block moves) the backend
	// routes it accordingly.
	Copy(dst, src Region, n int64) error
	// CopyUnrolled is the hand-unrolled load/store word loop, which
	// never gets hardware assists.
	CopyUnrolled(dst, src Region, n int64) error
	// ReadSum is the unrolled load-and-add loop over n bytes.
	ReadSum(r Region, n int64) error
	// Write is the unrolled store loop over n bytes.
	Write(r Region, n int64) error
	// NewChase builds a pointer chase over the first size bytes of r
	// with the given stride.
	NewChase(r Region, size, stride int64) (Chase, error)
	// LoadOverheadNS is the per-load instruction overhead the paper
	// subtracts when reporting latency (one processor cycle). Host
	// backends return their calibrated chase-loop overhead.
	LoadOverheadNS() float64
	// FlushCaches makes the next accesses cold, when the backend can
	// (the simulator); hosts may approximate or return ErrUnsupported.
	FlushCaches() error

	// The §7 extension primitives (see extensions.go).

	// NewChaseVariant builds a chase over the first size bytes of r
	// running the given workload (clean, dirty-read or write).
	NewChaseVariant(r Region, size, stride int64, v ChaseVariant) (Chase, error)
	// NewPageChase builds a chase touching one line on each of n
	// scattered (randomly placed or randomly ordered) pages, keeping
	// the cache footprint tiny while sweeping the TLB and defeating
	// sequential prefetch.
	NewPageChase(pages int) (Chase, error)
	// PageSize reports the page size the TLB maps.
	PageSize() int64
	// RunStreamKernel performs one full pass of a McCalpin STREAM
	// kernel over arrays of bytes bytes each.
	RunStreamKernel(k StreamKind, bytes int64) error
}

// Ring is the §6.6 context-switch ring.
type Ring interface {
	// Pass circulates the token once around the whole ring, i.e.
	// Procs() process-to-process hops. (A one-process ring is the
	// paper's overhead reference: the token goes through a pipe and
	// back to the same process with no context switch.)
	Pass() error
	// Procs returns the ring size.
	Procs() int
	// Close releases ring resources.
	Close() error
}

// OSOps are the kernel primitives of §6.3-6.6.
type OSOps interface {
	// NullWrite is one nontrivial kernel entry: write a word to
	// /dev/null (Table 7).
	NullWrite() error
	// SignalInstall installs a signal handler (Table 8).
	SignalInstall() error
	// SignalCatch sends the current process a signal and dispatches it
	// to the installed handler (Table 8).
	SignalCatch() error
	// ForkExit creates a child that exits immediately and waits for it
	// (Table 9).
	ForkExit() error
	// ForkExecExit creates a child that execs a trivial program
	// (Table 9).
	ForkExecExit() error
	// ForkShExit runs the trivial program via /bin/sh -c (Table 9).
	ForkShExit() error
	// NewRing builds a context-switch ring of nprocs processes each
	// with a cache footprint of footprint bytes (Figure 2, Table 10).
	NewRing(nprocs int, footprint int64) (Ring, error)

	// The §7 extension primitives (see extensions.go).

	// CacheToCachePingPong bounces one modified line between two
	// processors: write on one, read+write on the other, read back.
	// Uniprocessors return ErrUnsupported.
	CacheToCachePingPong() error
	// CacheToCacheTransfer moves n bytes of modified lines from the
	// other processor's cache.
	CacheToCacheTransfer(n int64) error
	// PhysicalMemoryBytes reports physical memory as the OS accounts
	// it; backends without that accounting (the simulator, whose §3.1
	// probe measures memory instead) return ErrUnsupported.
	PhysicalMemoryBytes() (int64, error)
	// TouchPages touches pages [0, n) once each, in order: the §3.1
	// probe. Backends that report PhysicalMemoryBytes (the host, which
	// does not risk forcing real paging) return ErrUnsupported.
	TouchPages(n int64) error
	// ProbePageBytes is the page size TouchPages steps by.
	ProbePageBytes() int64
}

// NetOps are the IPC and networking primitives of §5.2 and §6.7.
type NetOps interface {
	// PipeTransfer moves n bytes through a pipe in the backend's
	// buffer-sized chunks (Table 3).
	PipeTransfer(n int64) error
	// PipeRoundTrip passes a word to a peer process and back
	// (Table 11).
	PipeRoundTrip() error
	// TCPTransfer moves n bytes through a loopback TCP connection
	// (Table 3).
	TCPTransfer(n int64) error
	// TCPRoundTrip exchanges a word over loopback TCP (Table 12).
	TCPRoundTrip() error
	// UDPRoundTrip exchanges a word over loopback UDP (Table 13).
	UDPRoundTrip() error
	// RPCTCPRoundTrip is TCPRoundTrip through the RPC layer (Table 12).
	RPCTCPRoundTrip() error
	// RPCUDPRoundTrip is UDPRoundTrip through the RPC layer (Table 13).
	RPCUDPRoundTrip() error
	// TCPConnect establishes and closes one TCP connection (Table 15).
	TCPConnect() error
	// RemoteTCPTransfer moves n bytes over the named medium
	// (Table 4); hosts return ErrUnsupported.
	RemoteTCPTransfer(medium string, n int64) error
	// RemoteRoundTrip exchanges a word over the named medium
	// (Table 14).
	RemoteRoundTrip(medium string, udp bool) error
	// Media lists the media RemoteTCPTransfer supports.
	Media() []string
}

// FSOps are the file-system primitives of §5.3 and §6.8.
type FSOps interface {
	// Create makes one zero-length file (Table 16).
	Create(name string) error
	// Delete removes one file (Table 16).
	Delete(name string) error
	// WriteFile creates a file of the given size with cached data.
	WriteFile(name string, size int64) error
	// ReadCached rereads n bytes of a cached file through read()
	// (Table 5).
	ReadCached(name string, off, n int64) error
	// MmapRead rereads n bytes of a cached file through mmap
	// (Table 5).
	MmapRead(name string, off, n int64) error
	// Cleanup removes all files created by the benchmark.
	Cleanup() error
}

// DiskOps is the §6.9 raw-device interface.
type DiskOps interface {
	// SeqRead512 performs one sequential 512-byte read from the raw
	// device; under the paper's assumptions it is served from the
	// drive's track buffer and measures command overhead (Table 17).
	SeqRead512() error
	// Reset rewinds to the start of the device.
	Reset() error
}

// ContextBinder is an optional Machine capability: backends whose
// primitives block in the operating system (the host's pipe reads,
// socket round trips, child processes) implement it so the scheduler
// can hand them the context governing the current experiment. A bound
// context's deadline and cancellation propagate into the blocking
// calls; binding context.Background() clears any previous binding.
type ContextBinder interface {
	BindContext(ctx context.Context)
}

// Resetter is an optional Machine capability: backends holding mutable
// state that experiments perturb (a simulated machine's caches, bump
// heap, page pool, file system, disk head) implement it to restore
// their pristine post-construction state. The suite resets such a
// machine before every experiment attempt, making each experiment
// group's results a function of the machine and the group alone —
// independent of which experiments ran before. That independence is
// what guarantees a resumed run (whose earlier groups are replayed
// from the journal rather than executed) produces a database
// byte-identical to an uninterrupted run, and that a group run alone
// matches the same group inside the full suite. Backends measuring a
// real machine have no simulated state to restore and simply do not
// implement the interface.
type Resetter interface {
	Reset()
}

// SimStatser is an optional Machine capability: simulated backends
// expose their internal activity counters (cache hits per level, DRAM
// accesses, TLB misses, writebacks, fast-path hit counters) so the
// suite can attach a per-experiment delta to the event stream. The
// counters ride on events only — never on result entries — because the
// results database is covered by the byte-identity guarantee and its
// encoding must not change when instrumentation does.
type SimStatser interface {
	SimStats() map[string]int64
}

// Cloner is an optional Machine capability: backends that can stamp
// out an independent copy of themselves implement it so a suite run
// can fan its experiment groups, and the point sweeps (the Figure-1
// size × stride grid, the §7 memory-variant sweep) their points,
// across GOMAXPROCS workers (see pool). A clone must be
// indistinguishable from its original at the observation points the
// pool uses — a freshly Reset machine and a freshly flushed sweep
// point: same simulated addresses from the same allocation sequence,
// same cost model, same deterministic behavior. For the simulated
// machines, Clone simply rebuilds the profile. Backends measuring real
// hardware cannot clone the hardware and do not implement the
// interface, so they always run serially.
type Cloner interface {
	Clone() (Machine, error)
}

// Machine is a complete benchmark target.
type Machine interface {
	// Name identifies the machine in the results database
	// ("Linux/i686", "host", ...).
	Name() string
	// Clock is the time source the harness measures with.
	Clock() timing.Clock
	Mem() MemOps
	OS() OSOps
	Net() NetOps
	FS() FSOps
	// Disk may return nil when the backend has no raw-disk access.
	Disk() DiskOps
}

// SweepMode selects how the independent-point sweeps (the Figure-1
// size × stride grid, the §7 memory-variant sweep) cover their point
// grids.
type SweepMode string

const (
	// SweepExhaustive measures every grid point. It is the default and
	// the only mode covered by the byte-identity guarantee: the golden
	// database is an exhaustive-mode artifact.
	SweepExhaustive SweepMode = "exhaustive"
	// SweepAdaptive measures a coarse log-spaced subset of each grid,
	// segments it with the plateau detector, and bisects only across
	// detected transitions until plateau boundaries are localized to
	// adjacent grid points. Skipped plateau interiors are filled by
	// interpolation and flagged as synthetic in the entry attrs, so
	// downstream analysis can always tell measured from inferred
	// points.
	SweepAdaptive SweepMode = "adaptive"
)

// Options bundles harness options with benchmark sizing knobs.
type Options struct {
	// Timing configures the measurement harness.
	Timing timing.Options
	// MemSize is the large-transfer region size; default 8MB
	// ("the bcopy benchmark by default copies 8 megabytes to 8
	// megabytes"). Machines with little memory may use 4MB.
	MemSize int64
	// FileSize is the reread file size; default 8MB.
	FileSize int64
	// PipeBytes is the per-measured-op pipe transfer; default 512KB
	// (a slice of the paper's 50MB total; the harness loops it).
	PipeBytes int64
	// TCPBytes is the per-measured-op TCP transfer; default 1MB.
	TCPBytes int64
	// MaxChaseSize caps the Figure-1 sweep; default 8MB.
	MaxChaseSize int64
	// FSFiles is the Table 16 file count; default 1000.
	FSFiles int
	// CtxProcs are the ring sizes for Figure 2; default 1..20 in
	// steps (the 1-process ring is the overhead reference).
	CtxProcs []int
	// CtxSizes are the footprints for Figure 2; default 0,4K,16K,32K,64K.
	CtxSizes []int64
	// SweepMode selects exhaustive (default) or adaptive point-sweep
	// coverage. The mode is part of the options fingerprint, so
	// adaptive and exhaustive results live under distinct run IDs and
	// unit-cache keys by construction and can never poison each other.
	SweepMode SweepMode
}

// FastOptions shrinks the workloads for a quick pass — small regions,
// millisecond samples, a short context-switch ladder. `lmbench -fast`
// runs them, and so does every calibration candidate by default.
func FastOptions() Options {
	return Options{
		Timing:       timing.Options{MinSampleTime: ptime.Millisecond, Samples: 3},
		MemSize:      2 << 20,
		FileSize:     2 << 20,
		MaxChaseSize: 2 << 20,
		FSFiles:      200,
		CtxProcs:     []int{2, 8, 16},
		CtxSizes:     []int64{0, 16 << 10, 32 << 10},
	}
}

// Fingerprint is the canonical identity of the options a run executes
// with: the JSON encoding of the normalized options. Options contains
// no maps, so encoding/json emits fields in fixed declaration order.
// Store manifests, unit-cache keys and journal records (ConfigDigest)
// are keyed by it.
func (o Options) Fingerprint() (string, error) {
	n, err := o.Normalize()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Normalize validates o and fills in the paper's defaults for unset
// (zero or empty) fields. Zero values mean "use the default"; negative
// sizes, non-positive ring sizes and negative footprints are
// nonsensical and rejected. The timing options are normalized the same
// way through timing.Options.Normalize.
func (o Options) Normalize() (Options, error) {
	sizes := []struct {
		name string
		v    int64
	}{
		{"MemSize", o.MemSize},
		{"FileSize", o.FileSize},
		{"PipeBytes", o.PipeBytes},
		{"TCPBytes", o.TCPBytes},
		{"MaxChaseSize", o.MaxChaseSize},
		{"FSFiles", int64(o.FSFiles)},
	}
	for _, s := range sizes {
		if s.v < 0 {
			return o, fmt.Errorf("core: negative %s %d", s.name, s.v)
		}
	}
	for _, p := range o.CtxProcs {
		if p < 1 {
			return o, fmt.Errorf("core: CtxProcs entry %d: a ring needs at least one process", p)
		}
	}
	for _, s := range o.CtxSizes {
		if s < 0 {
			return o, fmt.Errorf("core: negative CtxSizes entry %d", s)
		}
	}
	switch o.SweepMode {
	case "":
		o.SweepMode = SweepExhaustive
	case SweepExhaustive, SweepAdaptive:
	default:
		return o, fmt.Errorf("core: unknown SweepMode %q (want %q or %q)", o.SweepMode, SweepExhaustive, SweepAdaptive)
	}
	var err error
	if o.Timing, err = o.Timing.Normalize(); err != nil {
		return o, err
	}
	if o.MemSize == 0 {
		o.MemSize = 8 << 20
	}
	if o.FileSize == 0 {
		o.FileSize = 8 << 20
	}
	if o.PipeBytes == 0 {
		o.PipeBytes = 512 << 10
	}
	if o.TCPBytes == 0 {
		o.TCPBytes = 1 << 20
	}
	if o.MaxChaseSize == 0 {
		o.MaxChaseSize = 8 << 20
	}
	if o.FSFiles == 0 {
		o.FSFiles = 1000
	}
	if len(o.CtxProcs) == 0 {
		o.CtxProcs = []int{2, 4, 8, 12, 16, 20}
	}
	if len(o.CtxSizes) == 0 {
		o.CtxSizes = []int64{0, 4 << 10, 16 << 10, 32 << 10, 64 << 10}
	}
	return o, nil
}
