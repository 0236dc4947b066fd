// Benchmarks regenerating every table and figure in the paper's
// evaluation on the simulated Table-1 machines. Each benchmark runs
// one experiment end-to-end per iteration and, once per run, logs the
// paper-format table (use -v to see them):
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable2 -v
//
// The reported metric is wall time to regenerate the experiment; the
// interesting output is the logged table, whose *shape* should match
// the paper (see EXPERIMENTS.md for the row-by-row comparison).
package lmbench

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/paper"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

// benchMachines is the testbed subset used by the benchmarks: enough
// machines to exercise every mechanism (HW bcopy, loopback-optimized
// stacks, all three FS modes, single- and multi-level caches, MP
// profiles) without making a bench run take minutes.
var benchMachines = []string{
	"Linux/i686", "HP K210", "Sun Ultra1", "SGI Challenge", "Sun SC1000",
}

// benchOpts trims the workloads; the virtual clock is exact so small
// samples lose no precision.
func benchOpts() core.Options {
	return core.Options{
		Timing: timing.Options{MinSampleTime: 500 * ptime.Microsecond, Samples: 2},
		// Paper-sized regions: machines with 4MB board caches (SGI
		// Challenge) must measure memory, not cache.
		MemSize:      8 << 20,
		FileSize:     8 << 20,
		PipeBytes:    128 << 10,
		TCPBytes:     256 << 10,
		MaxChaseSize: 8 << 20,
		FSFiles:      300,
		CtxProcs:     []int{2, 8, 16},
		CtxSizes:     []int64{0, 16 << 10, 32 << 10},
	}
}

// buildCache memoizes machine construction (profile calibration runs
// scratch simulations, which would otherwise dominate short benches).
var buildCache sync.Map

func benchMachine(b *testing.B, name string) *machines.Machine {
	b.Helper()
	if m, ok := buildCache.Load(name); ok {
		return m.(*machines.Machine)
	}
	p, ok := machines.ByName(name)
	if !ok {
		b.Fatalf("no profile %q", name)
	}
	m, err := machines.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	buildCache.Store(name, m)
	return m
}

// runExperiment executes one experiment on the testbed subset and
// returns the populated database.
func runExperiment(b *testing.B, id string, names []string) *results.DB {
	b.Helper()
	exp, ok := core.ExperimentByID(id)
	if !ok {
		b.Fatalf("no experiment %q", id)
	}
	db := &results.DB{}
	for _, name := range names {
		m := benchMachine(b, name)
		entries, err := exp.Run(context.Background(), m, benchOpts())
		if err != nil {
			if core.IsUnsupported(err) {
				continue
			}
			b.Fatalf("%s on %s: %v", id, name, err)
		}
		for _, e := range entries {
			if err := db.Add(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

// benchTable is the common harness: regenerate the experiment per
// iteration, log the rendered table once.
func benchTable(b *testing.B, id string, names []string) {
	var db *results.DB
	for i := 0; i < b.N; i++ {
		db = runExperiment(b, id, names)
	}
	b.StopTimer()
	var buf bytes.Buffer
	if err := paper.RenderTable(&buf, id, db); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + buf.String())
}

func BenchmarkTable1Systems(b *testing.B) {
	// Table 1 is the testbed inventory; regenerating it is printing
	// the profile catalog.
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		fmt.Fprintf(&buf, "Table 1. System descriptions.\n")
		for _, p := range machines.All() {
			fmt.Fprintf(&buf, "%-16s %-16s %-12s %4.0fMHz  %d  $%dk  SPECInt92 %d\n",
				p.Name, p.OSName, p.CPUName, p.MHz, p.Year, p.PriceK, p.SPECInt)
		}
	}
	b.Log("\n" + buf.String())
}

func BenchmarkTable2MemoryBandwidth(b *testing.B) { benchTable(b, "table2", benchMachines) }
func BenchmarkTable3IPCBandwidth(b *testing.B)    { benchTable(b, "table3", benchMachines) }
func BenchmarkTable4RemoteTCP(b *testing.B)       { benchTable(b, "table4", benchMachines) }
func BenchmarkTable5FileReread(b *testing.B)      { benchTable(b, "table5", benchMachines) }
func BenchmarkTable6CacheParams(b *testing.B)     { benchTable(b, "table6", benchMachines) }
func BenchmarkTable7Syscall(b *testing.B)         { benchTable(b, "table7", benchMachines) }
func BenchmarkTable8Signals(b *testing.B)         { benchTable(b, "table8", benchMachines) }
func BenchmarkTable9ProcessCreation(b *testing.B) { benchTable(b, "table9", benchMachines) }
func BenchmarkTable10ContextSwitch(b *testing.B)  { benchTable(b, "table10", benchMachines) }
func BenchmarkTable11PipeLatency(b *testing.B)    { benchTable(b, "table11", benchMachines) }
func BenchmarkTable12TCPLatency(b *testing.B)     { benchTable(b, "table12", benchMachines) }
func BenchmarkTable13UDPLatency(b *testing.B)     { benchTable(b, "table13", benchMachines) }
func BenchmarkTable14RemoteLatency(b *testing.B)  { benchTable(b, "table14", benchMachines) }
func BenchmarkTable15TCPConnect(b *testing.B)     { benchTable(b, "table15", benchMachines) }
func BenchmarkTable16FSLatency(b *testing.B)      { benchTable(b, "table16", benchMachines) }
func BenchmarkTable17DiskOverhead(b *testing.B)   { benchTable(b, "table17", benchMachines) }

// BenchmarkFigure1SweepPlanning regenerates the Figure-1 memory
// sweep under each sweep mode and reports the grid points actually
// measured as points/op. Exhaustive over adaptive wall time is the
// planner's speedup, and the points/op ratio its point reduction —
// the >=2x number the adaptive planner is accountable for.
func BenchmarkFigure1SweepPlanning(b *testing.B) {
	for _, mode := range []core.SweepMode{core.SweepExhaustive, core.SweepAdaptive} {
		b.Run(string(mode), func(b *testing.B) {
			opts := benchOpts()
			opts.SweepMode = mode
			var entries []results.Entry
			for i := 0; i < b.N; i++ {
				var err error
				entries, err = core.MemLatencySweep(context.Background(), benchMachine(b, "DEC Alpha@300"), opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			measured := len(entries[0].Series)
			if s := entries[0].Attrs["sweep.points_measured"]; s != "" {
				var err error
				if measured, err = strconv.Atoi(s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(measured), "points/op")
		})
	}
}

// BenchmarkFigure1MemoryLatency regenerates the Figure-1 sweep on the
// machine the paper uses (DEC Alpha 8400) and logs the staircase plot.
func BenchmarkFigure1MemoryLatency(b *testing.B) {
	var db *results.DB
	for i := 0; i < b.N; i++ {
		db = runExperiment(b, "figure1", []string{"DEC Alpha@300"})
	}
	b.StopTimer()
	plot, err := paper.Figure1Plot(db, "DEC Alpha@300")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plot.Render(&buf); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + buf.String())
}

// BenchmarkFigure2ContextSwitch regenerates the Figure-2 surface on
// the paper's Linux/i686 and logs the plot; the knee sits at the 256K
// L2 boundary.
func BenchmarkFigure2ContextSwitch(b *testing.B) {
	var db *results.DB
	for i := 0; i < b.N; i++ {
		db = runExperiment(b, "figure2", []string{"Linux/i686"})
	}
	b.StopTimer()
	plot, err := paper.Figure2Plot(db, "Linux/i686")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plot.Render(&buf); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + buf.String())
}

// runExtension executes one §7 extension experiment on the testbed.
func runExtension(b *testing.B, id string, names []string) *results.DB {
	b.Helper()
	var exp core.Experiment
	found := false
	for _, e := range core.Extensions() {
		if e.ID == id {
			exp, found = e, true
		}
	}
	if !found {
		b.Fatalf("no extension %q", id)
	}
	db := &results.DB{}
	for _, name := range names {
		m := benchMachine(b, name)
		entries, err := exp.Run(context.Background(), m, benchOpts())
		if err != nil {
			if core.IsUnsupported(err) {
				continue
			}
			b.Fatalf("%s on %s: %v", id, name, err)
		}
		for _, e := range entries {
			if err := db.Add(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

func benchExtension(b *testing.B, id string) {
	var db *results.DB
	for i := 0; i < b.N; i++ {
		db = runExtension(b, id, benchMachines)
	}
	b.StopTimer()
	var buf bytes.Buffer
	if err := paper.RenderTable(&buf, id, db); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + buf.String())
}

func BenchmarkExtStream(b *testing.B)       { benchExtension(b, "ext_stream") }
func BenchmarkExtMemVariants(b *testing.B)  { benchExtension(b, "ext_memvar") }
func BenchmarkExtTLB(b *testing.B)          { benchExtension(b, "ext_tlb") }
func BenchmarkExtCacheToCache(b *testing.B) { benchExtension(b, "ext_c2c") }

// BenchmarkExtMemSize regenerates the §3.1 memory probe; it has no
// paper table, so the values are logged directly.
func BenchmarkExtMemSize(b *testing.B) {
	var db *results.DB
	for i := 0; i < b.N; i++ {
		db = runExtension(b, "ext_memsize", benchMachines)
	}
	b.StopTimer()
	var buf bytes.Buffer
	for _, m := range db.Machines() {
		if v, ok := db.Scalar("mem.size", m); ok {
			fmt.Fprintf(&buf, "%-16s %6.0f MB\n", m, v)
		}
	}
	b.Log("\n" + buf.String())
}
