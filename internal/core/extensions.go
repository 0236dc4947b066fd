package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

// This file implements the paper's §7 "Future work" items as optional
// extension experiments:
//
//   - "Memory latency ... extend the benchmark to measure dirty-read
//     latency, as well as write latency" — ExtMemVariants.
//   - "... and measuring TLB miss cost" — ExtTLB.
//   - "MP benchmarks ... we could measure cache-to-cache latency as
//     well as cache-to-cache bandwidth" — ExtCacheToCache.
//   - "McCalpin's stream benchmark. We will probably incorporate part
//     or all of this benchmark into lmbench" — ExtStream.
//   - "Automatic sizing ... determine the size of the external cache
//     and autosize the memory used" — AutoSize.
//
// Their primitives are part of MemOps and OSOps, so every wrapper of
// the op sets (the internal/faults chaos layer) reaches them too; a
// backend that lacks one returns ErrUnsupported and the experiment is
// skipped.

// ChaseVariant selects a pointer-chase workload.
type ChaseVariant int

const (
	// ChaseClean is the §6.2 read chase (victims unmodified).
	ChaseClean ChaseVariant = iota
	// ChaseDirty loads and stores each element, so every victim line
	// carries a write-back cost.
	ChaseDirty
	// ChaseWrite stores through the array at the given stride.
	ChaseWrite
)

// String names the variant.
func (v ChaseVariant) String() string {
	switch v {
	case ChaseClean:
		return "clean"
	case ChaseDirty:
		return "dirty"
	case ChaseWrite:
		return "write"
	default:
		return fmt.Sprintf("ChaseVariant(%d)", int(v))
	}
}

// StreamKind selects a McCalpin STREAM kernel.
type StreamKind int

const (
	// StreamCopy is a(i) = b(i).
	StreamCopy StreamKind = iota
	// StreamScale is a(i) = q*b(i).
	StreamScale
	// StreamAdd is a(i) = b(i) + c(i).
	StreamAdd
	// StreamTriad is a(i) = b(i) + q*c(i).
	StreamTriad
)

// String names the kernel.
func (k StreamKind) String() string {
	switch k {
	case StreamCopy:
		return "copy"
	case StreamScale:
		return "scale"
	case StreamAdd:
		return "add"
	case StreamTriad:
		return "triad"
	default:
		return fmt.Sprintf("StreamKind(%d)", int(k))
	}
}

// streams returns how many arrays the kernel touches (STREAM's byte
// accounting: copy/scale move 2N, add/triad move 3N).
func (k StreamKind) streams() int64 {
	if k == StreamAdd || k == StreamTriad {
		return 3
	}
	return 2
}

// ExtMemSize implements the §3.1 memory-sizing check: "A small test
// program allocates as much memory as it can, clears the memory, and
// then strides through that memory a page at a time, timing each
// reference. If any reference takes more than a few microseconds, the
// page is no longer in memory. The test program starts small and works
// forward until either enough memory is seen as present or the memory
// limit is reached."
func ExtMemSize(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	sys := m.OS()
	if bytes, err := sys.PhysicalMemoryBytes(); !IsUnsupported(err) {
		if err != nil {
			return nil, err
		}
		return []results.Entry{entry(m, "mem.size", "MB", float64(bytes)/(1<<20),
			map[string]string{"method": "os"})}, nil
	}
	page := sys.ProbePageBytes()
	// perPage populates pages [0, n) (the probe program "clears the
	// memory"), then strides through them again, timed, and returns
	// the time per page.
	perPage := func(n int64) (ptime.Duration, error) {
		if err := sys.TouchPages(n); err != nil {
			return 0, err
		}
		d, err := timing.Once(m.Clock(), func() error { return sys.TouchPages(n) })
		return d.DivN(n), err
	}
	const fewMicroseconds = 10 * ptime.Microsecond
	const capBytes = int64(1) << 31 // 2GB probe ceiling (generous for 1995)
	good := int64(0)
	thrash := int64(0)
	for n := int64(256); n*page <= capBytes; n *= 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, err := perPage(n)
		if err != nil {
			return nil, err
		}
		if d > fewMicroseconds {
			thrash = n
			break
		}
		good = n * page
	}
	out := []results.Entry{entry(m, "mem.size", "MB", float64(good)/(1<<20),
		map[string]string{"method": "probe"})}
	if thrash > 0 {
		// Once past physical memory, every touch is a major fault, so
		// the per-touch time at 2x the knee is the page-fault service
		// time (page-sized read from the paging device).
		d, err := perPage(2 * thrash)
		if err != nil {
			return nil, err
		}
		out = append(out, entry(m, "lat_pagefault", "us", d.Microseconds(), nil))
	}
	return out, nil
}

// ExtStream runs the four STREAM kernels and reports MB/s with
// STREAM's byte accounting.
func ExtStream(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	mem := m.Mem()
	bytes := opts.MemSize
	var rows []row
	for _, kind := range []StreamKind{StreamCopy, StreamScale, StreamAdd, StreamTriad} {
		rows = append(rows, row{"stream." + kind.String(), "MB/s", bytes * kind.streams(),
			map[string]string{"bytes": fmt.Sprint(bytes)}, func() error { return mem.RunStreamKernel(kind, bytes) }})
	}
	return measure(ctx, m, opts, rows...)
}

// ExtMemVariants measures dirty-read and write latency next to the
// clean read chase, at a line-defeating stride across sizes, and
// reports the memory-plateau values. It builds the (variant × size)
// grid, one column per variant, and measures it through chaseSweep,
// the Figure-1 kernel, with a load cap of 1<<20.
func ExtMemVariants(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	const minSize = 4 << 10
	if opts.MaxChaseSize < minSize {
		return nil, fmt.Errorf("memvar: MaxChaseSize %d is below the sweep's smallest size %d", opts.MaxChaseSize, minSize)
	}
	variants := []ChaseVariant{ChaseClean, ChaseDirty, ChaseWrite}
	var pts []chasePoint
	var cols []sweepColumn
	for _, v := range variants {
		start := len(pts)
		for size := int64(minSize); size <= opts.MaxChaseSize; size *= 2 {
			pts = append(pts, chasePoint{size: size, stride: 128, variant: v})
		}
		cols = append(cols, sweepColumn{Start: start, End: len(pts)})
	}
	series, rep, err := chaseSweep(ctx, m, opts, pts, cols, 1<<20)
	if err != nil {
		return nil, err
	}
	var out []results.Entry
	for vi, variant := range variants {
		c := cols[vi]
		vs := series[c.Start:c.End]
		name := "lat_mem_rd_" + variant.String()
		if variant == ChaseWrite {
			name = "lat_mem_wr"
		}
		out = append(out, results.Entry{
			Benchmark: name, Machine: m.Name(), Unit: "ns", Series: vs,
			Attrs: rep.annotate(nil, c.Start, c.End),
		})
		// The memory plateau: the largest-size point.
		out = append(out, entry(m, name+".mem", "ns", vs[len(vs)-1].Y, nil))
	}
	return out, nil
}

// ExtTLB sweeps a one-line-per-page chase past the TLB size and
// extracts the TLB capacity and per-miss cost from the step in the
// curve.
func ExtTLB(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	mem := m.Mem()
	var series []results.Point
	maxPages := 2048
	for pages := 4; pages <= maxPages; pages *= 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ch, err := mem.NewPageChase(pages)
		if err != nil {
			return nil, err
		}
		lap := ch.Length()
		if err := ch.Walk(4 * lap); err != nil { // warm TLB and cache
			return nil, err
		}
		loads := 4 * lap
		if loads < 4096 {
			loads = 4096
		}
		best, err := timing.MinOnce(m.Clock(), 2, func() error { return ch.Walk(loads) })
		if err != nil {
			return nil, err
		}
		series = append(series, results.Point{
			X: float64(pages), Y: best.DivN(loads).Nanoseconds(),
		})
	}
	out := []results.Entry{{
		Benchmark: "lat_tlb", Machine: m.Name(), Unit: "ns", Series: series,
		Attrs: map[string]string{"pagesize": fmt.Sprint(mem.PageSize())},
	}}

	// Extraction: two plateaus — in-TLB and missing — whose boundary is
	// the TLB size and whose difference is the miss cost.
	ys := make([]float64, len(series))
	for i, p := range series {
		ys[i] = p.Y
	}
	plats := analysis.Plateaus(ys)
	if len(plats) >= 2 {
		// The TLB size is where the first plateau ends; the miss cost
		// is the first step's height (later rises mix in cache-capacity
		// effects as the page set outgrows the caches too — the very
		// conflation §7 wants the benchmark to avoid).
		first, second := plats[0], plats[1]
		out = append(out,
			entry(m, "tlb.entries", "pages", series[first.End-1].X, nil),
			entry(m, "tlb.miss_ns", "ns", second.Level-first.Level, nil),
		)
	}
	return out, nil
}

// ExtCacheToCache measures MP cache-to-cache latency and bandwidth.
func ExtCacheToCache(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	sys := m.OS()
	const xferBytes = 256 << 10
	return measure(ctx, m, opts,
		row{key: "lat_c2c", unit: "ns", op: sys.CacheToCachePingPong},
		row{key: "bw_c2c", unit: "MB/s", bytes: xferBytes, op: func() error { return sys.CacheToCacheTransfer(xferBytes) }},
	)
}

// Extensions returns the §7 future-work experiments.
func Extensions() []Experiment {
	return []Experiment{
		{
			ID: "ext_stream", Title: "Extension: McCalpin STREAM kernels (MB/s)",
			Benchmarks: []string{"stream."},
			Run:        ExtStream,
		},
		{
			ID: "ext_memvar", Title: "Extension: dirty-read and write memory latency (ns)",
			Benchmarks: []string{"lat_mem_rd_dirty", "lat_mem_wr"},
			Run:        ExtMemVariants,
		},
		{
			ID: "ext_tlb", Title: "Extension: TLB size and miss cost",
			Benchmarks: []string{"lat_tlb", "tlb."},
			Run:        ExtTLB,
		},
		{
			ID: "ext_c2c", Title: "Extension: MP cache-to-cache latency and bandwidth",
			Benchmarks: []string{"lat_c2c", "bw_c2c"},
			Run:        ExtCacheToCache,
		},
		{
			ID: "ext_memsize", Title: "Extension: usable physical memory (the section 3.1 probe)",
			Benchmarks: []string{"mem.size"},
			Run:        ExtMemSize, RunKey: "memsize",
		},
		{
			ID: "ext_pagefault", Title: "Extension: major page-fault latency (microseconds)",
			Benchmarks: []string{"lat_pagefault"},
			Run:        ExtMemSize, RunKey: "memsize",
		},
	}
}

// AutoSize implements §7's "Automatic sizing": it runs a quick
// hierarchy probe, finds the outermost cache, and returns options whose
// memory-bandwidth regions are at least four times that size "such
// that the external cache had no effect". The probe is a coarse chase
// (stride 256) from 8 KB to 8x MaxChaseSize, measured exhaustively
// through chaseSweep with no load cap; the outermost cache ends at the
// last size whose latency is below the midpoint between the fastest
// and slowest points.
func AutoSize(ctx context.Context, m Machine, base Options) (Options, error) {
	base, err := base.Normalize()
	if err != nil {
		return base, err
	}
	const minSize = 8 << 10
	probe := base
	probe.MaxChaseSize = base.MaxChaseSize * 8
	probe.SweepMode = SweepExhaustive
	if probe.MaxChaseSize < minSize {
		return base, fmt.Errorf("autosize: MaxChaseSize %d is below %d, so the probe (%d bytes up to 8x MaxChaseSize) has no size", base.MaxChaseSize, minSize/8, minSize)
	}
	var pts []chasePoint
	for size := int64(minSize); size <= probe.MaxChaseSize; size *= 2 {
		pts = append(pts, chasePoint{size: size, stride: 256})
	}
	series, _, err := chaseSweep(ctx, m, probe, pts, nil, math.MaxInt64)
	if err != nil {
		return base, err
	}
	minLat, maxLat := series[0].Y, series[0].Y
	for _, p := range series {
		minLat, maxLat = min(minLat, p.Y), max(maxLat, p.Y)
	}
	threshold := (minLat + maxLat) / 2
	llc := pts[0].size
	for i, p := range series {
		if p.Y < threshold {
			llc = pts[i].size
		}
	}
	if want := llc * 4; want > base.MemSize {
		base.MemSize = want
		base.FileSize = want
	}
	if want := llc * 8; want > base.MaxChaseSize {
		base.MaxChaseSize = want
	}
	return base, nil
}
