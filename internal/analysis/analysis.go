// Package analysis extracts memory-hierarchy parameters from memory
// latency sweeps — the paper's Table 6 ("Table 6 shows the cache size,
// cache latency, and main memory latency as extracted from the memory
// latency graphs") and the line-size derivation ("The cache line size
// can be derived by comparing curves and noticing which strides are
// faster than main memory times").
package analysis

import (
	"errors"
	"math"
	"sort"

	"repro/internal/results"
	"repro/internal/stats"
)

// Level is one extracted cache level.
type Level struct {
	// Size is the inferred capacity in bytes (the largest array size
	// that still fits the level).
	Size int64
	// LatencyNS is the level's back-to-back load latency.
	LatencyNS float64
}

// Hierarchy is the result of extraction.
type Hierarchy struct {
	// Levels are the detected cache levels, inner first.
	Levels []Level
	// MemLatencyNS is the main-memory plateau.
	MemLatencyNS float64
	// LineSize is the inferred cache line size in bytes, 0 if it could
	// not be derived.
	LineSize int64
}

// Staircase tolerances. A point joins the current plateau while it is
// within stepRelTol of the plateau's running level, or within stepAbsTol
// ns of it near zero; neighbouring plateaus whose levels lie within
// stepMergeTol of each other are one level split by noise. The Table-6
// extraction, the adaptive sweep planner and the TLB probe read steps
// with these same tolerances, so the planner refines exactly where the
// extraction looks.
const (
	stepRelTol   = 0.25
	stepAbsTol   = 2.0
	stepMergeTol = 0.30
)

// Plateaus segments a latency staircase into its plateaus, inner
// first.
func Plateaus(ys []float64) []stats.Plateau {
	return stats.MergePlateaus(stats.Plateaus(ys, stepRelTol, stepAbsTol), stepMergeTol)
}

// Flat reports whether values whose range (max minus min) is spread,
// around a typical value level, lie on one plateau: spread is within
// the step tolerance, max(stepAbsTol, stepRelTol·|level|).
func Flat(spread, level float64) bool {
	tol := stepRelTol * math.Abs(level)
	if tol < stepAbsTol {
		tol = stepAbsTol
	}
	return spread <= tol
}

// ExtractHierarchy analyses a lat_mem_rd series (Point{X: array size,
// X2: stride, Y: ns/load}).
//
// The staircase is read at one reference stride — large enough that
// every load misses the line fetched by its predecessor, small enough
// to avoid TLB-dominated territory. Plateaus then correspond to
// hierarchy levels: each plateau's level is the latency, and the last
// array size inside the plateau is the capacity.
func ExtractHierarchy(series []results.Point) (Hierarchy, error) {
	if len(series) == 0 {
		return Hierarchy{}, errors.New("analysis: empty series")
	}
	// Group by stride.
	byStride := map[float64][]results.Point{}
	for _, p := range series {
		byStride[p.X2] = append(byStride[p.X2], p)
	}
	strides := make([]float64, 0, len(byStride))
	for s := range byStride {
		strides = append(strides, s)
	}
	sort.Float64s(strides)

	ref := chooseReferenceStride(strides)
	pts := byStride[ref]
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	if len(pts) < 3 {
		return Hierarchy{}, errors.New("analysis: too few sizes at reference stride")
	}

	ys := make([]float64, len(pts))
	for i, p := range pts {
		ys[i] = p.Y
	}
	plats := Plateaus(ys)

	h := Hierarchy{}
	for i, pl := range plats {
		if i == len(plats)-1 {
			h.MemLatencyNS = pl.Level
			break
		}
		// The plateau covers pts[pl.Start:pl.End); the last size inside
		// is the level's capacity. The transition point itself already
		// misses, so the capacity is the last size before the rise.
		h.Levels = append(h.Levels, Level{
			Size:      int64(pts[pl.End-1].X),
			LatencyNS: pl.Level,
		})
	}
	if h.MemLatencyNS == 0 && len(h.Levels) > 0 {
		// Curve never left the caches; treat the outermost plateau as
		// memory-like but keep it as a level too.
		h.MemLatencyNS = h.Levels[len(h.Levels)-1].LatencyNS
	}
	h.LineSize = deriveLineSize(byStride, strides, h.MemLatencyNS)
	return h, nil
}

// chooseReferenceStride picks a stride in the middle of the swept
// range: large enough to defeat spatial locality, below the maximum to
// dodge TLB effects.
func chooseReferenceStride(strides []float64) float64 {
	if len(strides) == 1 {
		return strides[0]
	}
	target := 128.0
	best := strides[0]
	bestDist := math.Abs(math.Log2(best) - math.Log2(target))
	for _, s := range strides[1:] {
		if s <= 0 {
			continue
		}
		d := math.Abs(math.Log2(s) - math.Log2(target))
		if d < bestDist {
			best, bestDist = s, d
		}
	}
	return best
}

// deriveLineSize implements the paper's rule: "The smallest stride that
// is the same as main memory speed is likely to be the cache line size
// because the strides that are faster than memory are getting more
// than one hit per cache line." The comparison uses each stride's
// largest-array latency.
func deriveLineSize(byStride map[float64][]results.Point, strides []float64, memLat float64) int64 {
	if memLat <= 0 {
		return 0
	}
	for _, s := range strides {
		pts := byStride[s]
		var maxX, y float64
		for _, p := range pts {
			if p.X >= maxX {
				maxX, y = p.X, p.Y
			}
		}
		// "Same as memory speed" with 20% tolerance; TLB effects can
		// push the largest strides above the memory plateau.
		if y >= memLat*0.8 {
			return int64(s)
		}
	}
	return 0
}
