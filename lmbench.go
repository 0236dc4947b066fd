// Package lmbench is a Go reproduction of "lmbench: Portable Tools for
// Performance Analysis" (McVoy & Staelin, USENIX 1996): a suite of
// micro-benchmarks measuring the latency and bandwidth of the primitive
// operations underlying most applications — data movement among
// processor, caches, memory, network, file system and disk.
//
// The same benchmark code runs against two backends:
//
//   - the host backend, which measures the real machine the program
//     runs on (pipes, loopback TCP/UDP, an ONC-RPC-style layer, file
//     systems, O_DIRECT disk reads, pointer-chase memory latency), and
//   - simulated machines: calibrated models of the paper's Table-1
//     testbed (set-associative cache hierarchies, TLB and DRAM, an OS
//     cost model, a network stack model, metadata-policy file systems
//     and a SCSI disk model), against which every table and figure of
//     the paper's evaluation can be regenerated.
//
// Quick use:
//
//	lmbench.MaybeChild() // first line of main(); see below
//	m, _ := lmbench.NewHostMachine()
//	defer m.Close()
//	rep, err := lmbench.New(lmbench.WithMachine(m)).Run(context.Background())
//	_ = rep.Render(os.Stdout)
//
// New composes a run from options — machines, sinks, a resume
// journal, a fleet of worker processes, a unit cache, a results store
// — validates the combination and returns a Report; see the examples.
//
// Binaries that run the process-creation benchmarks must call
// MaybeChild first: the "fork & exit" rung re-executes the current
// binary, and MaybeChild makes those children exit immediately. The
// same call turns a re-exec into a fleet worker when a WithFleet run
// spawned it.
package lmbench

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/host"
	"repro/internal/machines"
	"repro/internal/paper"
	"repro/internal/results"
)

// Machine is a benchmark target: the host or a simulated system.
type Machine = core.Machine

// Options bundles harness settings and workload sizes; the zero value
// selects the paper's defaults (8MB regions, 1000 files, ...).
type Options = core.Options

// SweepMode selects how point sweeps cover their grids; see
// SweepExhaustive and SweepAdaptive.
type SweepMode = core.SweepMode

// Sweep coverage modes. Exhaustive measures every grid point and is
// the byte-stable default; adaptive measures a coarse pass plus
// refinement around detected transitions and interpolates plateau
// interiors, marking synthetic points in entry attributes.
const (
	SweepExhaustive = core.SweepExhaustive
	SweepAdaptive   = core.SweepAdaptive
)

// Experiment ties one of the paper's tables or figures to the code
// that regenerates it.
type Experiment = core.Experiment

// DB is the mergeable, serializable results database.
type DB = results.DB

// Event is one structured record of the run event stream.
type Event = core.Event

// EventSink receives run events; see NewTextSink and NewJSONLSink.
type EventSink = core.EventSink

// Entry is one benchmark result (scalar or series).
type Entry = results.Entry

// MaybeChild must be the first call in main() of any binary using the
// host backend's process-creation benchmarks or fleet execution. It
// turns re-executions of the binary into what they were spawned to be:
// a fork-child of a process benchmark exits immediately; a WithFleet
// worker serves work units on stdin/stdout and then exits. The
// fork-child check runs first — fork children of a fleet worker
// inherit both sentinels and must still exit at once.
func MaybeChild() {
	host.MaybeChild()
	fleet.MaybeWorker()
}

// NewHostMachine builds the backend measuring the real machine. Close
// it when done.
func NewHostMachine() (*host.Machine, error) { return host.New() }

// SimMachineNames lists the compiled-in Table-1 machine profiles. The
// full shipped set — compiled built-ins plus embedded data-file
// profiles — is DefaultCatalog().Names().
func SimMachineNames() []string { return machines.Names() }

// NewSimMachine builds a simulated machine from the shipped catalog:
// the compiled Table-1 testbed plus the embedded data-file profiles.
func NewSimMachine(name string) (Machine, error) {
	return NewSimMachineIn(nil, name)
}

// UnknownMachineError reports a name with no built-in profile.
type UnknownMachineError struct{ Name string }

func (e *UnknownMachineError) Error() string {
	return "lmbench: unknown simulated machine " + e.Name
}

// Experiments returns the paper's evaluation (Tables 2-17, Figures
// 1-2) in presentation order.
func Experiments() []Experiment { return core.Experiments() }

// NewTextSink renders run events as human-readable progress lines.
func NewTextSink(w io.Writer) EventSink { return core.NewTextSink(w) }

// NewJSONLSink writes run events as JSON lines, one object per
// lifecycle transition.
func NewJSONLSink(w io.Writer) EventSink { return core.NewJSONLSink(w) }

// NewPrefixedTextSink is NewTextSink with each line prefixed by its
// machine name — the readable choice for multi-machine runs.
func NewPrefixedTextSink(w io.Writer) EventSink { return core.NewPrefixedTextSink(w) }

// Extensions returns the §7 future-work experiments WithExtended
// adds to a run.
func Extensions() []Experiment { return core.Extensions() }

// AutoSize probes m's memory hierarchy and grows base's region sizes
// so the outermost cache cannot satisfy the "memory" benchmarks (§7
// "Automatic sizing").
func AutoSize(ctx context.Context, m Machine, base Options) (Options, error) {
	return core.AutoSize(ctx, m, base)
}

// RenderReport writes every populated table and figure in the paper's
// presentation format.
func RenderReport(w io.Writer, db *DB) error { return paper.RenderAll(w, db) }

// RenderTable writes one table ("table2" ... "table17").
func RenderTable(w io.Writer, id string, db *DB) error { return paper.RenderTable(w, id, db) }
