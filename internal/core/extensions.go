package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/stats"
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
// Backends advertise support through the optional interfaces below;
// experiments on backends lacking them are skipped via ErrUnsupported.

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

// MemExtOps is the optional memory-extension capability.
type MemExtOps interface {
	// NewChaseVariant builds a chase running the given workload.
	NewChaseVariant(r Region, size, stride int64, v ChaseVariant) (Chase, error)
	// NewPageChase builds a chase touching one line on each of n
	// scattered (randomly placed or randomly ordered) pages, keeping
	// the cache footprint tiny while sweeping the TLB and defeating
	// sequential prefetch.
	NewPageChase(pages int) (Chase, error)
	// PageSize reports the page size the TLB maps.
	PageSize() int64
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

// StreamOps is the optional STREAM capability. RunStreamKernel performs
// one full pass of the kernel over arrays of `bytes` bytes each.
type StreamOps interface {
	RunStreamKernel(k StreamKind, bytes int64) error
}

// SMPOps is the optional multiprocessor capability.
type SMPOps interface {
	// CacheToCachePingPong bounces one modified line between two
	// processors: write on one, read+write on the other, read back.
	CacheToCachePingPong() error
	// CacheToCacheTransfer moves n bytes of modified lines from the
	// other processor's cache.
	CacheToCacheTransfer(n int64) error
}

// MemSizer is the optional capability of backends that can report
// physical memory directly (the host, from the OS).
type MemSizer interface {
	PhysicalMemoryBytes() (int64, error)
}

// PageToucher is the optional capability backing the §3.1 probe on
// simulated machines: touch pages [0, n) once each, in order.
type PageToucher interface {
	TouchPages(n int64) error
	ProbePageBytes() int64
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
	if ms, ok := m.OS().(MemSizer); ok {
		bytes, err := ms.PhysicalMemoryBytes()
		if err != nil {
			return nil, err
		}
		return []results.Entry{entry(m, "mem.size", "MB", float64(bytes)/(1<<20),
			map[string]string{"method": "os"})}, nil
	}
	pt, ok := m.OS().(PageToucher)
	if !ok {
		return nil, fmt.Errorf("memsize: %w", ErrUnsupported)
	}
	page := pt.ProbePageBytes()
	// perPage populates pages [0, n) (the probe program "clears the
	// memory"), then strides through them again, timed, and returns
	// the time per page.
	perPage := func(n int64) (ptime.Duration, error) {
		if err := pt.TouchPages(n); err != nil {
			return 0, err
		}
		d, err := timing.Once(m.Clock(), func() error { return pt.TouchPages(n) })
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
	so, ok := m.Mem().(StreamOps)
	if !ok {
		return nil, fmt.Errorf("stream: %w", ErrUnsupported)
	}
	bytes := opts.MemSize
	var out []results.Entry
	for _, kind := range []StreamKind{StreamCopy, StreamScale, StreamAdd, StreamTriad} {
		meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(func() error {
			return so.RunStreamKernel(kind, bytes)
		}))
		if err != nil {
			return nil, fmt.Errorf("stream.%s: %w", kind, err)
		}
		moved := bytes * kind.streams()
		out = append(out, entry(m, "stream."+kind.String(), "MB/s",
			timing.MBPerSec(moved, meas.PerOp), map[string]string{"bytes": fmt.Sprint(bytes)}))
	}
	return out, nil
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
	if _, ok := m.Mem().(MemExtOps); !ok {
		return nil, fmt.Errorf("memvar: %w", ErrUnsupported)
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
	ext, ok := m.Mem().(MemExtOps)
	if !ok {
		return nil, fmt.Errorf("tlb: %w", ErrUnsupported)
	}
	var series []results.Point
	maxPages := 2048
	for pages := 4; pages <= maxPages; pages *= 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ch, err := ext.NewPageChase(pages)
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
		Attrs: map[string]string{"pagesize": fmt.Sprint(ext.PageSize())},
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
	smp, ok := m.OS().(SMPOps)
	if !ok {
		return nil, fmt.Errorf("c2c: %w", ErrUnsupported)
	}
	lat, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(smp.CacheToCachePingPong))
	if err != nil {
		return nil, fmt.Errorf("lat_c2c: %w", err)
	}
	const xferBytes = 256 << 10
	bw, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(func() error {
		return smp.CacheToCacheTransfer(xferBytes)
	}))
	if err != nil {
		return nil, fmt.Errorf("bw_c2c: %w", err)
	}
	return []results.Entry{
		entry(m, "lat_c2c", "ns", lat.PerOpNS(), nil),
		entry(m, "bw_c2c", "MB/s", timing.MBPerSec(xferBytes, bw.PerOp), nil),
	}, nil
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
// that the external cache had no effect". The probe walks a coarse
// chase (stride 256) and finds the last size still below twice the
// small-size latency.
func AutoSize(ctx context.Context, m Machine, base Options) (Options, error) {
	base, err := base.Normalize()
	if err != nil {
		return base, err
	}
	mem := m.Mem()
	probeMax := base.MaxChaseSize * 8
	region, err := mem.Alloc(probeMax)
	if err != nil {
		return base, err
	}
	const stride = 256
	var sizes []int64
	var lats []float64
	for size := int64(8 << 10); size <= probeMax; size *= 2 {
		if err := ctx.Err(); err != nil {
			return base, err
		}
		if err := mem.FlushCaches(); err != nil && !IsUnsupported(err) {
			return base, err
		}
		ch, err := mem.NewChase(region, size, stride)
		if err != nil {
			return base, err
		}
		lap := ch.Length()
		if err := ch.Walk(lap); err != nil {
			return base, err
		}
		loads := 2 * lap
		if loads < 4096 {
			loads = 4096
		}
		d, err := timing.Once(m.Clock(), func() error { return ch.Walk(loads) })
		if err != nil {
			return base, err
		}
		sizes = append(sizes, size)
		lats = append(lats, d.DivN(loads).Nanoseconds())
	}
	// The outermost cache ends at the last size whose latency is below
	// the midpoint between the fastest and slowest plateaus.
	minLat, _ := stats.Min(lats)
	maxLat, _ := stats.Max(lats)
	threshold := (minLat + maxLat) / 2
	llc := sizes[0]
	for i, l := range lats {
		if l < threshold {
			llc = sizes[i]
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
