package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/analysis"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

// ChaseStrides are the default stride sizes for the Figure-1 sweep.
var ChaseStrides = []int64{8, 16, 32, 64, 128, 256, 512}

// MemLatencySweep is §6.2 / Figure 1: back-to-back-load latency over
// array sizes and strides. "The benchmark varies two parameters, array
// size and array stride. ... The time reported is pure latency time"
// (one load-instruction cycle subtracted). It builds the (stride ×
// size) grid, one column per stride, and measures it through
// chaseSweep with a load cap of 1<<21.
func MemLatencySweep(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	var pts []chasePoint
	var cols []sweepColumn
	for _, stride := range ChaseStrides {
		start := len(pts)
		for size := int64(512); size <= opts.MaxChaseSize; size *= 2 {
			if size < 2*stride {
				continue
			}
			pts = append(pts, chasePoint{size: size, stride: stride})
		}
		cols = append(cols, sweepColumn{Start: start, End: len(pts)})
	}
	series, rep, err := chaseSweep(ctx, m, opts, pts, cols, 1<<21)
	if err != nil {
		return nil, err
	}
	return []results.Entry{{
		Benchmark: "lat_mem_rd",
		Machine:   m.Name(),
		Unit:      "ns",
		Series:    series,
		Attrs:     rep.annotate(map[string]string{"maxsize": fmt.Sprint(opts.MaxChaseSize)}, 0, len(pts)),
	}}, nil
}

// chasePoint is one point of a chase sweep: a chase of the given
// workload over the first size bytes of the region at stride.
type chasePoint struct {
	size, stride int64
	variant      ChaseVariant
}

// chaseSweep is the one chase-latency kernel under Figure 1 and the §7
// memory-variant sweep. Each point flushes the caches, warms its chase
// one lap, then takes the best of two timed walks of twice a lap's
// loads (at least 4096, at most maxLoads) and reports ns per load with
// the load cycle subtracted; every point thus starts cold and depends
// on the machine and the point alone, so the points run on the
// executor across m and its clones and land in point order,
// byte-identical to a serial run. An exhaustive sweep measures every
// point; an adaptive one plans cols through adaptiveSweep, whose report
// marks the synthetic points (nil when exhaustive).
func chaseSweep(ctx context.Context, m Machine, opts Options, pts []chasePoint, cols []sweepColumn, maxLoads int64) ([]results.Point, *sweepReport, error) {
	series := make([]results.Point, len(pts))
	set := func(i int, y float64) {
		series[i] = results.Point{X: float64(pts[i].size), X2: float64(pts[i].stride), Y: y}
	}
	l := machineLane(m, func(m Machine) (evalFunc, error) {
		mem := m.Mem()
		ext, _ := mem.(MemExtOps)
		region, err := mem.Alloc(opts.MaxChaseSize)
		if err != nil {
			return nil, err
		}
		clock := m.Clock()
		overhead := mem.LoadOverheadNS()
		return func(ctx context.Context, i int) error {
			p := pts[i]
			if err := mem.FlushCaches(); err != nil && !IsUnsupported(err) {
				return err
			}
			var ch Chase
			var err error
			if p.variant == ChaseClean {
				ch, err = mem.NewChase(region, p.size, p.stride)
			} else {
				ch, err = ext.NewChaseVariant(region, p.size, p.stride, p.variant)
			}
			if err != nil {
				return err
			}
			lap := ch.Length()
			if err := ch.Walk(lap); err != nil { // warm
				return err
			}
			loads := min(max(2*lap, 4096), maxLoads)
			// Min of two timed runs against run-to-run variability.
			best, err := timing.MinOnce(clock, 2, func() error { return ch.Walk(loads) })
			if err != nil {
				return err
			}
			set(i, max(best.DivN(loads).Nanoseconds()-overhead, 0))
			return nil
		}, nil
	})
	if opts.SweepMode == SweepAdaptive {
		rep, err := adaptiveSweep(ctx, l, cols, func(i int) float64 { return series[i].Y }, set)
		return series, rep, err
	}
	_, err := positions{idx: seq(len(pts)), lane: func(int) *lane { return l }}.run(ctx, runtime.GOMAXPROCS(0))
	return series, nil, err
}

// CacheParams is Table 6: cache and memory latencies and sizes
// extracted from the Figure-1 sweep.
func CacheParams(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	sweep, err := MemLatencySweep(ctx, m, opts)
	if err != nil {
		return nil, err
	}
	h, err := analysis.ExtractHierarchy(sweep[0].Series)
	if err != nil {
		return nil, fmt.Errorf("cache extraction: %w", err)
	}
	out := sweep
	for i, lvl := range h.Levels {
		out = append(out,
			entry(m, fmt.Sprintf("cache.l%d_lat", i+1), "ns", lvl.LatencyNS, nil),
			entry(m, fmt.Sprintf("cache.l%d_size", i+1), "bytes", float64(lvl.Size), nil),
		)
	}
	out = append(out, entry(m, "cache.mem_lat", "ns", h.MemLatencyNS, nil))
	if h.LineSize > 0 {
		out = append(out, entry(m, "cache.line_size", "bytes", float64(h.LineSize), nil))
	}
	return out, nil
}

// CtxSweep is §6.6 / Figure 2 and Table 10: context-switch time as a
// function of ring size and per-process cache footprint. Following the
// paper, the cost of passing the token (measured on a single-process
// ring with hot caches) is subtracted: "the benchmark first measures
// the cost of passing the token through a ring of pipes in a single
// process. This overhead time ... is not included in the reported
// context switch time."
func CtxSweep(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	osops := m.OS()

	// perHop measures the steady-state per-hop time of a ring: one
	// Pass is a full circulation of `procs` hops.
	perHop := func(procs int, footprint int64) (float64, error) {
		ring, err := osops.NewRing(procs, footprint)
		if err != nil {
			return 0, err
		}
		defer func() { _ = ring.Close() }()
		meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(ring.Pass))
		if err != nil {
			return 0, err
		}
		return meas.PerOpUS() / float64(procs), nil
	}

	var series []results.Point
	scalars := map[string]float64{}
	for _, size := range opts.CtxSizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		overhead, err := perHop(1, size)
		if err != nil {
			return nil, fmt.Errorf("lat_ctx overhead (size %d): %w", size, err)
		}
		for _, procs := range opts.CtxProcs {
			per, err := perHop(procs, size)
			if err != nil {
				return nil, fmt.Errorf("lat_ctx (%dp, %d): %w", procs, size, err)
			}
			ctx := per - overhead
			if ctx < 0 {
				ctx = 0
			}
			series = append(series, results.Point{X: float64(procs), X2: float64(size), Y: ctx})
			if (procs == 2 || procs == 8) && (size == 0 || size == 32<<10) {
				scalars[fmt.Sprintf("lat_ctx.%dp_%dk", procs, size>>10)] = ctx
			}
		}
	}
	out := []results.Entry{{
		Benchmark: "lat_ctx",
		Machine:   m.Name(),
		Unit:      "us",
		Series:    series,
	}}
	for _, key := range []string{"lat_ctx.2p_0k", "lat_ctx.2p_32k", "lat_ctx.8p_0k", "lat_ctx.8p_32k"} {
		if v, ok := scalars[key]; ok {
			out = append(out, entry(m, key, "us", v, nil))
		}
	}
	return out, nil
}

// memPlateau is a helper for tests and examples: the latency at the
// largest size/reference stride of a sweep.
func memPlateau(series []results.Point) ptime.Duration {
	var maxX float64
	var y float64
	for _, p := range series {
		if p.X2 != 128 {
			continue
		}
		if p.X >= maxX {
			maxX, y = p.X, p.Y
		}
	}
	return ptime.FromNS(y)
}
