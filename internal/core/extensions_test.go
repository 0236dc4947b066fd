package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
)

func TestExtStreamOnSim(t *testing.T) {
	m := simMachine(t, "Linux/i686")
	entries, err := core.ExtStream(context.Background(), m, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4 kernels", len(entries))
	}
	vals := map[string]float64{}
	for _, e := range entries {
		if e.Scalar <= 0 {
			t.Errorf("%s = %v, want > 0", e.Benchmark, e.Scalar)
		}
		vals[e.Benchmark] = e.Scalar
	}
	// Add and Triad move three streams; their MB/s (STREAM accounting)
	// should exceed Copy's two-stream rate on a memory-bound machine.
	if vals["stream.add"] < vals["stream.copy"] {
		t.Errorf("add (%v) should report >= copy (%v) under 3-stream accounting",
			vals["stream.add"], vals["stream.copy"])
	}
}

func TestExtMemVariantsDirtyCostsMore(t *testing.T) {
	m := simMachine(t, "Linux/i686")
	opts := smallOpts()
	opts.MaxChaseSize = 4 << 20
	entries, err := core.ExtMemVariants(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	db := &results.DB{}
	for _, e := range entries {
		_ = db.Add(e)
	}
	clean, ok1 := db.Scalar("lat_mem_rd_clean.mem", m.Name())
	dirty, ok2 := db.Scalar("lat_mem_rd_dirty.mem", m.Name())
	write, ok3 := db.Scalar("lat_mem_wr.mem", m.Name())
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing plateaus: %v %v %v", ok1, ok2, ok3)
	}
	if dirty <= clean {
		t.Errorf("dirty-read latency (%v) should exceed clean (%v): victims carry writebacks", dirty, clean)
	}
	if write <= 0 {
		t.Errorf("write latency = %v", write)
	}
	// Series present for all three variants.
	for _, name := range []string{"lat_mem_rd_clean", "lat_mem_rd_dirty", "lat_mem_wr"} {
		e, ok := db.Get(name, m.Name())
		if !ok || !e.IsSeries() || len(e.Series) < 5 {
			t.Errorf("series %s missing or short", name)
		}
	}
}

// TestExtMemVariantsRejectsTinyChaseSize: a MaxChaseSize below the
// sweep's smallest size (4 KB) leaves every variant without points;
// the run must fail with an error naming the option, in both sweep
// modes, rather than index an empty series.
func TestExtMemVariantsRejectsTinyChaseSize(t *testing.T) {
	for _, mode := range []core.SweepMode{core.SweepExhaustive, core.SweepAdaptive} {
		opts := core.FastOptions()
		opts.MaxChaseSize = 2048
		opts.SweepMode = mode
		s := &core.Suite{
			M: simMachine(t, "Linux/i686"), Opts: opts, Extended: true,
			Only: map[string]bool{"ext_memvar": true},
		}
		_, err := s.Run(context.Background(), &results.DB{})
		if err == nil || !strings.Contains(err.Error(), "MaxChaseSize") {
			t.Errorf("%s: err = %v, want one naming MaxChaseSize", mode, err)
		}
	}
}

func TestExtTLBFindsEntries(t *testing.T) {
	m := simMachine(t, "Linux/i686") // 64-entry TLB, 120ns miss
	entries, err := core.ExtTLB(context.Background(), m, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	db := &results.DB{}
	for _, e := range entries {
		_ = db.Add(e)
	}
	got, ok := db.Scalar("tlb.entries", m.Name())
	if !ok {
		t.Fatal("no tlb.entries extracted")
	}
	if got < 32 || got > 128 {
		t.Errorf("tlb.entries = %v, want ~64", got)
	}
	miss, ok := db.Scalar("tlb.miss_ns", m.Name())
	if !ok {
		t.Fatal("no tlb.miss_ns extracted")
	}
	if miss < 60 || miss > 240 {
		t.Errorf("tlb.miss_ns = %v, want ~120", miss)
	}
}

func TestExtCacheToCache(t *testing.T) {
	// SGI Challenge is an MP machine; the extension must work there.
	m := simMachine(t, "SGI Challenge")
	entries, err := core.ExtCacheToCache(context.Background(), m, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	db := &results.DB{}
	for _, e := range entries {
		_ = db.Add(e)
	}
	lat, _ := db.Scalar("lat_c2c", m.Name())
	bw, _ := db.Scalar("bw_c2c", m.Name())
	if lat <= 0 || bw <= 0 {
		t.Errorf("c2c = %v ns, %v MB/s", lat, bw)
	}
	// A ping-pong is several line transfers at >= memory-ish cost.
	if lat < 1000 {
		t.Errorf("lat_c2c = %vns, want >= 1us on a 1995 bus", lat)
	}

	// Uniprocessors skip it.
	uni := simMachine(t, "Linux/i686")
	if _, err := core.ExtCacheToCache(context.Background(), uni, smallOpts()); !core.IsUnsupported(err) {
		t.Errorf("uniprocessor c2c err = %v, want unsupported", err)
	}
}

func TestSuiteExtended(t *testing.T) {
	m := simMachine(t, "SGI Challenge")
	db := &results.DB{}
	s := &core.Suite{
		M: m, Opts: smallOpts(), Extended: true,
		Only: map[string]bool{"ext_stream": true, "ext_tlb": true, "ext_c2c": true},
	}
	skipped, err := s.Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Errorf("skipped = %v", skipped)
	}
	for _, prefix := range []string{"stream.", "lat_tlb", "lat_c2c"} {
		found := false
		for _, b := range db.Benchmarks() {
			if strings.HasPrefix(b, prefix) {
				found = true
			}
		}
		if !found {
			t.Errorf("no results under %q", prefix)
		}
	}
	// Without Extended, extension IDs are ignored entirely.
	db2 := &results.DB{}
	s2 := &core.Suite{M: m, Opts: smallOpts(), Only: map[string]bool{"ext_stream": true}}
	if _, err := s2.Run(context.Background(), db2); err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 0 {
		t.Errorf("non-extended suite ran extensions: %d entries", db2.Len())
	}
}

func TestAutoSize(t *testing.T) {
	// SGI Challenge has a 4M board cache: AutoSize must grow the
	// 8M default regions to at least 16M.
	m := simMachine(t, "SGI Challenge")
	base := smallOpts()
	base.MaxChaseSize = 4 << 20 // probe up to 32M
	got, err := core.AutoSize(context.Background(), m, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.MemSize < 16<<20 {
		t.Errorf("AutoSize MemSize = %d, want >= 16M for a 4M cache", got.MemSize)
	}
	// A small-cache machine keeps the defaults.
	m2 := simMachine(t, "Linux/i686")
	base2 := smallOpts()
	base2.MemSize = 8 << 20
	base2.MaxChaseSize = 1 << 20
	got2, err := core.AutoSize(context.Background(), m2, base2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.MemSize != 8<<20 {
		t.Errorf("AutoSize should not shrink 8M for a 256K cache: %d", got2.MemSize)
	}
}

// TestAutoSizeRejectsTinyChaseSize: the probe sweeps 8 KB up to 8x
// MaxChaseSize, so a MaxChaseSize below 1 KB leaves it no size; it must
// say so rather than index an empty sweep.
func TestAutoSizeRejectsTinyChaseSize(t *testing.T) {
	opts := core.FastOptions()
	opts.MaxChaseSize = 512
	_, err := core.AutoSize(context.Background(), simMachine(t, "Linux/i686"), opts)
	if err == nil || !strings.Contains(err.Error(), "MaxChaseSize") {
		t.Errorf("err = %v, want one naming MaxChaseSize", err)
	}
}

// autoSizePinned is AutoSize's MemSize/FileSize/MaxChaseSize in KB for
// every catalog machine under two bases: FastOptions (2M regions, a
// probe up to 16M) and 8M regions with a 1M MaxChaseSize (a probe up
// to 8M).
const autoSizePinned = `
DEC Alpha@150            2048/2048/4096 8192/8192/4096
DEC Alpha@300            16384/16384/32768 16384/16384/32768
DEC Alpha@300/4          16384/16384/32768 16384/16384/32768
FreeBSD/i586             2048/2048/2048 8192/8192/2048
HP 9000/735              2048/2048/2048 8192/8192/2048
HP K210                  2048/2048/2048 8192/8192/2048
HP K210/2                2048/2048/2048 8192/8192/2048
IBM Power2               2048/2048/2048 8192/8192/2048
IBM PowerPC              2048/2048/4096 8192/8192/4096
Linux/Alpha              2048/2048/2048 8192/8192/2048
Linux/i486               2048/2048/2048 8192/8192/2048
Linux/i586               2048/2048/2048 8192/8192/2048
Linux/i686               2048/2048/2048 8192/8192/2048
Modern/desktop-3GHz      32768/32768/65536 8192/8192/2048
Modern/laptop-2GHz       2048/2048/4096 8192/8192/4096
Modern/server-128B       8192/8192/16384 8192/8192/16384
NetBSD/i586              2048/2048/2048 8192/8192/2048
SGI Challenge            16384/16384/32768 16384/16384/32768
SGI Challenge/4          16384/16384/32768 16384/16384/32768
SGI Indigo2              4096/4096/8192 8192/8192/8192
Solaris/i686             2048/2048/2048 8192/8192/2048
Sun SC1000               4096/4096/8192 8192/8192/8192
Sun SC1000/8             4096/4096/8192 8192/8192/8192
Sun Ultra1               2048/2048/4096 8192/8192/4096
SunOS/SS20               4096/4096/8192 8192/8192/8192
Unixware/i686            2048/2048/2048 8192/8192/2048
`

// TestAutoSizePinned pins the options AutoSize returns on every
// catalog machine, so a change to its probe that moves a threshold
// shows here. `make golden-serial` runs it at GOMAXPROCS=1, the chase
// sweep's serial path.
func TestAutoSizePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("probes every catalog machine; skipped with -short")
	}
	wide := core.Options{MemSize: 8 << 20, FileSize: 8 << 20, MaxChaseSize: 1 << 20}
	cat := machines.Default()
	var got strings.Builder
	got.WriteString("\n")
	for _, name := range cat.Names() {
		p, _ := cat.ByName(name)
		fmt.Fprintf(&got, "%-24s", name)
		for _, base := range []core.Options{core.FastOptions(), wide} {
			m, err := machines.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			o, err := core.AutoSize(context.Background(), m, base)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&got, " %d/%d/%d", o.MemSize>>10, o.FileSize>>10, o.MaxChaseSize>>10)
		}
		got.WriteString("\n")
	}
	if got.String() != autoSizePinned {
		t.Errorf("AutoSize options (KB, MemSize/FileSize/MaxChaseSize; FastOptions, then 8M with MaxChaseSize 1M):%s\nwant:%s", got.String(), autoSizePinned)
	}
}

func TestVariantAndKindStrings(t *testing.T) {
	if core.ChaseClean.String() != "clean" || core.ChaseDirty.String() != "dirty" ||
		core.ChaseWrite.String() != "write" {
		t.Error("variant names broken")
	}
	if core.ChaseVariant(9).String() == "" {
		t.Error("unknown variant should render")
	}
	if core.StreamCopy.String() != "copy" || core.StreamTriad.String() != "triad" {
		t.Error("kind names broken")
	}
	if core.StreamKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestExtMemSizeProbe(t *testing.T) {
	// Linux/i586 is configured with 16MB; the probe must find ~16MB
	// (to the nearest power-of-two page-count step).
	m := simMachine(t, "Linux/i586")
	entries, err := core.ExtMemSize(context.Background(), m, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	got := entries[0].Scalar
	if got < 8 || got > 16 {
		t.Errorf("probed memory = %vMB, want 8-16 for a 16MB machine", got)
	}
	if entries[0].Attrs["method"] != "probe" {
		t.Errorf("method = %q", entries[0].Attrs["method"])
	}
}

func TestExtMemSizeLargerMachine(t *testing.T) {
	// HP K210 has 128MB: the probe must see more than the i586 does.
	small, err := core.ExtMemSize(context.Background(), simMachine(t, "Linux/i586"), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	big, err := core.ExtMemSize(context.Background(), simMachine(t, "HP K210"), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if big[0].Scalar <= small[0].Scalar {
		t.Errorf("128MB machine probed %vMB, 16MB machine %vMB", big[0].Scalar, small[0].Scalar)
	}
}

func TestExtPageFaultLatency(t *testing.T) {
	// On the simulated i586 (16MB) the probe crosses into paging
	// territory; the major-fault service time is disk-bound
	// (milliseconds).
	entries, err := core.ExtMemSize(context.Background(), simMachine(t, "Linux/i586"), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	db := &results.DB{}
	for _, e := range entries {
		_ = db.Add(e)
	}
	pf, ok := db.Scalar("lat_pagefault", "Linux/i586")
	if !ok {
		t.Fatal("no lat_pagefault entry")
	}
	if pf < 1000 {
		t.Errorf("page fault = %vus, want disk-bound (>= 1ms)", pf)
	}
}
