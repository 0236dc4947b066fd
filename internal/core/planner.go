package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/stats"
)

// This file implements adaptive sweep planning (Options.SweepMode ==
// SweepAdaptive). The Figure-1 grid spends most of its points
// re-measuring flat plateaus; the paper's methodology only needs dense
// sampling where the latency curve steps between hierarchy levels. The
// planner therefore runs a coarse log-spaced pass over each sweep
// column, segments the measured values with the same plateau detector
// the Table-6 extraction uses (stats.Plateaus/MergePlateaus at the
// 0.25/2/0.30 tolerances), and recursively bisects only across detected
// transitions until every plateau boundary is localized to adjacent
// grid points. Untouched plateau interiors are filled by linear
// interpolation and flagged as synthetic in the entry attrs, so
// downstream analysis can always tell measured from inferred points.
//
// Determinism: every planning decision is a pure function of measured
// point values, and each point value is a function of (machine, point)
// alone — the same independence that makes parallel sweeps
// byte-identical to serial ones. Refinement batches are dispatched in
// sorted index order through the same pool the exhaustive path uses,
// so an adaptive sweep produces identical results at every worker
// count; TestAdaptiveSweepMatchesSerial asserts it under the
// race detector.

// Planner tuning. The segmentation tolerances deliberately match the
// Table-6 extraction (analysis.ExtractHierarchy) so the planner
// refines exactly where the extraction will look for steps.
const (
	plannerRelTol     = 0.25 // per-step relative tolerance for Plateaus
	plannerAbsTol     = 2.0  // ns floor for near-zero levels
	plannerMergeTol   = 0.30 // MergePlateaus level tolerance
	plannerCoarseStep = 4    // coarse pass measures every 4th grid point
	plannerMinFull    = 5    // columns this short are measured exhaustively
	plannerMaxRounds  = 32   // hard stop; bisection converges in O(log n)
)

// Cumulative planner activity, exported for scrape-time metric
// closures (obs.RegisterSweepPlanner). Skipped points are grid points
// an adaptive sweep filled synthetically instead of measuring;
// exhaustive sweeps touch neither counter.
var (
	sweepPointsMeasured atomic.Int64
	sweepPointsSkipped  atomic.Int64
)

// ReadSweepStats reports the cumulative number of sweep grid points
// measured and skipped (filled synthetically) by adaptive planning in
// this process.
func ReadSweepStats() (measured, skipped int64) {
	return sweepPointsMeasured.Load(), sweepPointsSkipped.Load()
}

// sweepCollector accumulates one attempt's planner activity; the suite
// attaches one to the experiment context and copies the totals onto
// the finished event (Event.Sweep) for the trace and metrics sinks.
type sweepCollector struct {
	measured atomic.Int64
	skipped  atomic.Int64
	rounds   atomic.Int64
}

type sweepCollectorKey struct{}

// withSweepCollector attaches c to ctx for the duration of an attempt.
func withSweepCollector(ctx context.Context, c *sweepCollector) context.Context {
	return context.WithValue(ctx, sweepCollectorKey{}, c)
}

// sweepColumn is a half-open range [Start, End) of contiguous grid
// indices forming one monotone curve (one stride of the Figure-1
// sweep, one variant of the §7 memory-variant sweep). Columns are
// planned independently: hierarchy transitions show up in every
// column, but at column-specific positions.
type sweepColumn struct{ Start, End int }

// sweepReport records which grid points an adaptive sweep measured and
// which it synthesized, for entry-attr marking and observability.
type sweepReport struct {
	mode      SweepMode
	measured  int
	rounds    int
	synthetic []bool // per grid index
}

// annotate stamps the planner's marks for grid range [start, end) onto
// an entry attr map, allocating one if needed. Indices in the
// sweep.synthetic ranges are relative to start, i.e. positions within
// the entry's own Series. Exhaustive sweeps have a nil report and
// leave attrs untouched — the byte-identity guarantee covers them.
func (r *sweepReport) annotate(attrs map[string]string, start, end int) map[string]string {
	if r == nil || r.mode != SweepAdaptive {
		return attrs
	}
	if attrs == nil {
		attrs = map[string]string{}
	}
	meas, synth := 0, 0
	for i := start; i < end; i++ {
		if r.synthetic[i] {
			synth++
		} else {
			meas++
		}
	}
	attrs["sweep.mode"] = string(SweepAdaptive)
	attrs["sweep.points_measured"] = strconv.Itoa(meas)
	attrs["sweep.points_synthetic"] = strconv.Itoa(synth)
	if s := r.syntheticRanges(start, end); s != "" {
		attrs["sweep.synthetic"] = s
	}
	return attrs
}

// syntheticRanges compresses the synthetic indices within [start, end)
// into a "2-4,9,12-13" list, relative to start.
func (r *sweepReport) syntheticRanges(start, end int) string {
	var b strings.Builder
	i := start
	for i < end {
		if !r.synthetic[i] {
			i++
			continue
		}
		j := i
		for j+1 < end && r.synthetic[j+1] {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if i == j {
			fmt.Fprintf(&b, "%d", i-start)
		} else {
			fmt.Fprintf(&b, "%d-%d", i-start, j-start)
		}
		i = j + 1
	}
	return b.String()
}

// adaptiveSweep evaluates the grid of n points covered by cols with
// coarse-then-refine planning. setup is the same per-machine
// preparation runSweep takes; yAt reads the measured value of a grid
// index (valid once its batch completed) and setY stores a synthetic
// value for a skipped index. Every planning decision happens between
// batches, on completed measurements only.
func adaptiveSweep(ctx context.Context, m Machine, opts Options, cols []sweepColumn, setup func(Machine) (evalFunc, error), yAt func(int) float64, setY func(int, float64)) (*sweepReport, error) {
	n := 0
	for _, c := range cols {
		if c.End > n {
			n = c.End
		}
	}
	l := machineLane(m, setup)
	measured := make([]bool, n)
	var batch []int
	request := func(i int) {
		if !measured[i] {
			measured[i] = true
			batch = append(batch, i)
		}
	}
	rounds := 0
	refine := func(plan []sweepColumn) error {
		for len(batch) > 0 && rounds < plannerMaxRounds {
			sort.Ints(batch)
			if _, err := (positions{idx: batch, lane: func(int) *lane { return l }}).run(ctx, runtime.GOMAXPROCS(0)); err != nil {
				return err
			}
			batch = batch[:0]
			rounds++
			for _, c := range plan {
				planColumn(c, measured, yAt, request)
			}
		}
		return nil
	}
	coarse := func(c sweepColumn) {
		if c.End-c.Start <= plannerMinFull {
			for i := c.Start; i < c.End; i++ {
				request(i)
			}
			return
		}
		// Every plannerCoarseStep-th point plus both endpoints (the
		// endpoints anchor interpolation and pin the smallest-size and
		// memory-plateau values the extraction and the ".mem" scalars
		// read directly).
		for off := 0; off < c.End-c.Start; off += plannerCoarseStep {
			request(c.Start + off)
		}
		request(c.End - 1)
	}

	// Phase 1 — lead column: coarse pass, then bisect detected
	// transitions to convergence. The lead column pays the full
	// discovery cost once.
	lead := cols[0]
	coarse(lead)
	if err := refine(cols[:1]); err != nil {
		return nil, err
	}

	// Phase 2 — remaining columns: hierarchy transitions sit at the
	// same sizes in every column (the caches do not move with the
	// stride), and all columns share size alignment at their top end.
	// So instead of a fresh coarse pass, each column is seeded with its
	// endpoints plus anchors at the lead column's boundary positions,
	// aligned by offset from the column end. Segmentation of the seeded
	// measurements then verifies the assumption: a transition that
	// moved (or a column with extra structure) shows up as a level
	// change between seeds and is bisected like any other seam, so
	// seeding only saves points, never accuracy.
	if len(cols) > 1 {
		offs := boundaryEndOffsets(lead, measured, yAt)
		for _, c := range cols[1:] {
			if c.End-c.Start <= plannerMinFull {
				for i := c.Start; i < c.End; i++ {
					request(i)
				}
				continue
			}
			request(c.Start)
			request(c.End - 1)
			for _, off := range offs {
				if i := c.End - 1 - off; i >= c.Start && i < c.End {
					request(i)
				}
			}
		}
		if err := refine(cols[1:]); err != nil {
			return nil, err
		}
	}

	rep := &sweepReport{mode: SweepAdaptive, rounds: rounds, synthetic: make([]bool, n)}
	for _, c := range cols {
		last := -1
		for i := c.Start; i < c.End; i++ {
			if measured[i] {
				last = i
				continue
			}
			next := i + 1
			for !measured[next] {
				next++
			}
			frac := float64(i-last) / float64(next-last)
			setY(i, yAt(last)+(yAt(next)-yAt(last))*frac)
			rep.synthetic[i] = true
		}
		for i := c.Start; i < c.End; i++ {
			if measured[i] {
				rep.measured++
			}
		}
	}
	skipped := n - rep.measured
	sweepPointsMeasured.Add(int64(rep.measured))
	sweepPointsSkipped.Add(int64(skipped))
	if c, ok := ctx.Value(sweepCollectorKey{}).(*sweepCollector); ok {
		c.measured.Add(int64(rep.measured))
		c.skipped.Add(int64(skipped))
		c.rounds.Add(int64(rounds))
	}
	return rep, nil
}

// columnSeams segments a column's measured values with the extraction
// tolerances and returns each plateau boundary as the pair of measured
// grid indices (a, b) straddling it, skipping boundaries whose local
// window is flat within noise (see seamWithinNoise).
func columnSeams(c sweepColumn, measured []bool, yAt func(int) float64) [][2]int {
	var idxs []int
	for i := c.Start; i < c.End; i++ {
		if measured[i] {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) < 2 {
		return nil
	}
	ys := make([]float64, len(idxs))
	for j, i := range idxs {
		ys[j] = yAt(i)
	}
	plats := stats.MergePlateaus(stats.Plateaus(ys, plannerRelTol, plannerAbsTol), plannerMergeTol)
	var seams [][2]int
	for k := 0; k+1 < len(plats); k++ {
		j := plats[k].End // first measured position of the next plateau
		if seamWithinNoise(ys, j) {
			continue
		}
		seams = append(seams, [2]int{idxs[j-1], idxs[j]})
	}
	return seams
}

// planColumn requests one bisection point across every plateau
// boundary not yet localized to adjacent grid points.
func planColumn(c sweepColumn, measured []bool, yAt func(int) float64, request func(int)) {
	for _, s := range columnSeams(c, measured, yAt) {
		if a, b := s[0], s[1]; b-a > 1 {
			request((a + b) / 2)
		}
	}
}

// boundaryEndOffsets converts the lead column's converged plateau
// boundaries into offsets from the column's last index, the alignment
// shared by every column of a sweep (all columns end at the same
// maximum size). Each boundary contributes both of its sides.
func boundaryEndOffsets(c sweepColumn, measured []bool, yAt func(int) float64) []int {
	last := c.End - 1
	var offs []int
	for _, s := range columnSeams(c, measured, yAt) {
		offs = append(offs, last-s[0], last-s[1])
	}
	return offs
}

// seamWithinNoise is the planner's stopping rule: the order statistics
// of the measured window around a detected boundary decide whether the
// step is real. A boundary whose local spread (max minus min of up to
// four neighbors) stays inside the plateau tolerance is a noise split
// — MergePlateaus can leave one behind on a slow drift — and bisecting
// it would spend points without localizing anything. The window can be
// as small as two samples and, on a degenerate column, one; Percentile
// owes these calls its pinned p=0/p=100/single-sample behavior.
func seamWithinNoise(ys []float64, j int) bool {
	lo, hi := j-2, j+2
	if lo < 0 {
		lo = 0
	}
	if hi > len(ys) {
		hi = len(ys)
	}
	win := ys[lo:hi]
	p0, err0 := stats.Percentile(win, 0)
	p100, err100 := stats.Percentile(win, 100)
	med, errM := stats.Percentile(win, 50)
	if err0 != nil || err100 != nil || errM != nil {
		return false // NaN/empty window: refine rather than trust it
	}
	tol := plannerRelTol * math.Abs(med)
	if tol < plannerAbsTol {
		tol = plannerAbsTol
	}
	return p100-p0 <= tol
}
