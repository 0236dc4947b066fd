package core_test

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

// smallOpts shrinks the workloads so a full-suite run on the virtual
// clock completes in test time.
func smallOpts() core.Options {
	return core.Options{
		Timing:       timing.Options{MinSampleTime: 50 * ptime.Microsecond, Samples: 2},
		MemSize:      1 << 20,
		FileSize:     1 << 20,
		PipeBytes:    64 << 10,
		TCPBytes:     128 << 10,
		MaxChaseSize: 2 << 20,
		FSFiles:      100,
		CtxProcs:     []int{2, 8},
		CtxSizes:     []int64{0, 32 << 10},
	}
}

func simMachine(t *testing.T, name string) core.Machine {
	t.Helper()
	p, ok := machines.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	m, err := machines.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// setProcs sets GOMAXPROCS — the width of the suite's worker pool on a
// simulated machine — for the rest of the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSuiteRunsEverythingOnSim is the whole-system integration test:
// every experiment runs on a simulated machine and produces entries
// under its declared benchmark keys.
func TestSuiteRunsEverythingOnSim(t *testing.T) {
	m := simMachine(t, "Linux/i686")
	db := &results.DB{}
	s := &core.Suite{M: m, Opts: smallOpts()}
	skipped, err := s.Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Errorf("sim machine skipped %v, want none", skipped)
	}
	benches := db.Benchmarks()
	have := func(prefix string) bool {
		for _, b := range benches {
			if strings.HasPrefix(b, prefix) {
				return true
			}
		}
		return false
	}
	for _, exp := range core.Experiments() {
		for _, key := range exp.Benchmarks {
			if !have(key) {
				t.Errorf("%s: no result under %q (have %v)", exp.ID, key, benches)
			}
		}
	}
}

// TestSuiteValuesMatchCalibration spot-checks that suite-measured
// numbers land on the profile's calibration targets.
func TestSuiteValuesMatchCalibration(t *testing.T) {
	name := "Linux/i686"
	m := simMachine(t, name)
	p, _ := machines.ByName(name)
	db := &results.DB{}
	s := &core.Suite{
		M: m, Opts: smallOpts(),
		Only: map[string]bool{"table7": true, "table12": true, "table15": true, "table9": true},
	}
	if _, err := s.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	check := func(bench string, want, slack float64) {
		t.Helper()
		got, ok := db.Scalar(bench, name)
		if !ok {
			t.Errorf("missing %s", bench)
			return
		}
		if math.Abs(got-want)/want > slack {
			t.Errorf("%s = %.3g, want %.3g", bench, got, want)
		}
	}
	check("lat_syscall", p.SyscallUS, 0.02)
	check("lat_tcp", p.TCPLatUS, 0.05)
	check("lat_rpc_tcp", p.RPCTCPLatUS, 0.05)
	check("lat_connect", p.ConnectUS, 0.05)
	check("lat_proc.fork", p.ForkMS, 0.03)
	check("lat_proc.sh", p.ForkShMS, 0.03)
}

// TestFigure1SweepShape checks the sweep's structural properties on
// the DEC Alpha: latency non-decreasing in size per stride, and the
// sub-line strides faster than the line-size strides at memory sizes.
func TestFigure1SweepShape(t *testing.T) {
	m := simMachine(t, "DEC Alpha@300")
	opts := smallOpts()
	opts.MaxChaseSize = 8 << 20 // must exceed the 4M board cache
	entries, err := core.MemLatencySweep(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	series := entries[0].Series
	if len(series) == 0 {
		t.Fatal("empty sweep")
	}
	byStride := map[float64][]results.Point{}
	for _, pt := range series {
		byStride[pt.X2] = append(byStride[pt.X2], pt)
	}
	for stride, pts := range byStride {
		for i := 1; i < len(pts); i++ {
			if pts[i].X > pts[i-1].X && pts[i].Y < pts[i-1].Y-2 {
				t.Errorf("stride %v: latency fell from %.1f to %.1f at size %v",
					stride, pts[i-1].Y, pts[i].Y, pts[i].X)
			}
		}
	}
	// At the largest size, stride 8 must be far cheaper than stride
	// 128 (spatial locality: multiple hits per 32-byte line).
	lastY := func(stride float64) float64 {
		pts := byStride[stride]
		return pts[len(pts)-1].Y
	}
	if lastY(8) > lastY(128)/2 {
		t.Errorf("sub-line stride not amortized: stride8=%.1f stride128=%.1f", lastY(8), lastY(128))
	}
}

// TestTable6ExtractionOnAlpha: the analysis recovers the profile's
// cache latencies from the simulated machine's own sweep.
func TestTable6ExtractionOnAlpha(t *testing.T) {
	m := simMachine(t, "DEC Alpha@300")
	opts := smallOpts()
	opts.MaxChaseSize = 8 << 20
	entries, err := core.CacheParams(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	db := &results.DB{}
	for _, e := range entries {
		_ = db.Add(e)
	}
	l1, ok := db.Scalar("cache.l1_lat", m.Name())
	if !ok {
		t.Fatal("no L1 latency extracted")
	}
	if math.Abs(l1-3.3) > 1.5 {
		t.Errorf("extracted L1 = %.1fns, want ~3.3", l1)
	}
	mem, ok := db.Scalar("cache.mem_lat", m.Name())
	if !ok {
		t.Fatal("no memory latency extracted")
	}
	if mem < 350 || mem > 560 {
		t.Errorf("extracted memory latency = %.0fns, want ~400-500", mem)
	}
	// Line-size derivation: strides >= the largest line (64) should
	// run at memory speed.
	if ls, ok := db.Scalar("cache.line_size", m.Name()); ok {
		if ls < 32 || ls > 256 {
			t.Errorf("derived line size = %v, want 32-256", ls)
		}
	}
}

// TestFigure2Knee: on a machine with a 256K L2, eight 32K processes
// (256K total) context-switch much more slowly than two.
func TestFigure2Knee(t *testing.T) {
	m := simMachine(t, "Linux/i686")
	opts := smallOpts()
	opts.CtxProcs = []int{2, 16}
	opts.CtxSizes = []int64{32 << 10}
	entries, err := core.CtxSweep(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	series := entries[0].Series
	var two, sixteen float64
	for _, pt := range series {
		switch pt.X {
		case 2:
			two = pt.Y
		case 16:
			sixteen = pt.Y
		}
	}
	if two <= 0 || sixteen <= 0 {
		t.Fatalf("missing points: %v", series)
	}
	if sixteen < 2*two {
		t.Errorf("no cache knee: 2p=%.1fus 16p=%.1fus", two, sixteen)
	}
}

// TestSuiteOnlyFilter ensures Only restricts execution.
func TestSuiteOnlyFilter(t *testing.T) {
	m := simMachine(t, "Linux/i686")
	db := &results.DB{}
	s := &core.Suite{M: m, Opts: smallOpts(), Only: map[string]bool{"table7": true}}
	if _, err := s.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Errorf("db has %d entries, want 1 (lat_syscall only)", db.Len())
	}
}

// TestRemoteExperimentsPerMedium: Table 4 and 14 produce one entry per
// medium the profile supports.
func TestRemoteExperimentsPerMedium(t *testing.T) {
	m := simMachine(t, "SGI Challenge") // hippi
	opts := smallOpts()
	entries, err := core.BWRemoteTCP(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Benchmark != "bw_tcp_remote.hippi" {
		t.Errorf("entries = %+v", entries)
	}
	// Hippi with hardware checksum should be fast but below the 100MB/s wire.
	if v := entries[0].Scalar; v < 20 || v > 100 {
		t.Errorf("hippi bandwidth = %.1f MB/s, want 20-100", v)
	}
	lat, err := core.LatRemote(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 2 {
		t.Errorf("remote latency entries = %+v", lat)
	}
}
