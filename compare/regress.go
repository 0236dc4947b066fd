package compare

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/results"
)

// Automatic regression detection between two runs — the BENCH_*.json /
// benchstat trajectory generalized to every experiment in the results
// database. For each (benchmark, machine) present in both runs the
// relative delta is tested against a per-entry noise estimate, so a
// change only counts when it clears the measurement's own run-to-run
// variability (Becker & Chakraborty's characterization: significance
// must be judged against observed spread, not a fixed percentage).
//
// The noise estimate reuses the PR-2 quality gate's statistic: the
// suite stamps every accepted entry with quality.spread, the
// stats.RelSpread of its min-of-N samples ((median-min)/min). The
// significance bar for a pair of entries is
//
//	max(MinRel, Sigmas × max(spread_base, spread_head))
//
// — at least MinRel (guarding exact-zero deltas on deterministic
// simulated runs, where any nonzero change is real but sub-ppm float
// jitter is not interesting), and otherwise a multiple of the noisier
// side's spread, the min-of-N analogue of benchstat's variance test.

// Delta is one (benchmark, machine) pair's change from base to head.
type Delta struct {
	Benchmark string
	Machine   string
	Unit      string
	// Base and Head are the two values (for series entries, the value
	// at the worst-moving point; Point identifies it).
	Base, Head float64
	// Point is the series X at which the worst move happened; zero and
	// unused for scalar entries (IsSeries false).
	Point    float64
	IsSeries bool
	// Rel is (head-base)/base, signed.
	Rel float64
	// Noise is the significance bar the delta was tested against.
	Noise float64
	// Regression is true when the change is significant and moves in
	// the unit's "worse" direction (slower for times, less for
	// bandwidths); significant deltas the other way are improvements.
	Regression bool
}

// RegressOptions tunes significance; zero values select defaults.
type RegressOptions struct {
	// Sigmas multiplies the per-entry spread estimate; default 3.
	Sigmas float64
	// MinRel is the significance floor; default 0.001 (0.1%).
	MinRel float64
}

func (o RegressOptions) normalize() RegressOptions {
	if o.Sigmas == 0 {
		o.Sigmas = 3
	}
	if o.MinRel == 0 {
		o.MinRel = 0.001
	}
	return o
}

// RegressionReport is the outcome of Regressions: every significant
// delta, worst first.
type RegressionReport struct {
	// BaseID and HeadID name the two runs in rendered output.
	BaseID, HeadID string
	// Deltas holds the significant changes, sorted by |Rel| descending.
	Deltas []Delta
	// Compared counts (benchmark, machine) pairs present in both runs.
	Compared int
	// Regressions and Improvements count the two directions.
	Regressions, Improvements int
	// Options echoes the normalized significance settings used.
	Options RegressOptions
}

// Empty reports whether no significant change was found — the
// regression gate's pass condition.
func (r RegressionReport) Empty() bool { return len(r.Deltas) == 0 }

// higherIsBetter classifies units: bandwidths improve upward,
// latencies downward.
func higherIsBetter(unit string) bool {
	switch unit {
	case "MB/s", "GB/s", "KB/s", "ops/s", "op/s", "req/s":
		return true
	}
	return false
}

// entrySpread extracts the quality.spread attr the suite stamps on
// accepted entries; 0 when absent (deterministic simulated runs have
// no spread).
func entrySpread(e results.Entry) float64 {
	v, ok := e.Attrs["quality.spread"]
	if !ok {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return 0
	}
	return f
}

// Regressions compares every (benchmark, machine) pair present in both
// databases and reports the changes that clear the per-entry noise bar
// — max(MinRel, Sigmas × the entries' quality.spread). Direction is
// unit-aware: bandwidths regress downward, latencies upward; series
// entries are judged by their worst-moving common point.
func Regressions(base, head *DB, opt RegressOptions) RegressionReport {
	opt = opt.normalize()
	rep := RegressionReport{Options: opt}
	for _, be := range base.Entries() {
		he, ok := head.Get(be.Benchmark, be.Machine)
		if !ok || be.IsSeries() != he.IsSeries() {
			continue
		}
		rep.Compared++
		noise := opt.Sigmas * math.Max(entrySpread(be), entrySpread(he))
		if noise < opt.MinRel {
			noise = opt.MinRel
		}
		d := Delta{
			Benchmark: be.Benchmark, Machine: be.Machine, Unit: be.Unit,
			Noise: noise, IsSeries: be.IsSeries(),
		}
		if !be.IsSeries() {
			rel, ok := relDelta(be.Scalar, he.Scalar)
			if !ok {
				continue
			}
			d.Base, d.Head, d.Rel = be.Scalar, he.Scalar, rel
		} else {
			// Series (the Figure-1 style sweeps): the worst-moving
			// common point stands for the curve.
			worst, found := worstSeriesDelta(be.Series, he.Series)
			if !found {
				continue
			}
			d.Base, d.Head, d.Rel, d.Point = worst.base, worst.head, worst.rel, worst.x
		}
		if math.Abs(d.Rel) <= noise {
			continue
		}
		worse := d.Rel > 0
		if higherIsBetter(d.Unit) {
			worse = d.Rel < 0
		}
		d.Regression = worse
		if worse {
			rep.Regressions++
		} else {
			rep.Improvements++
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	sort.Slice(rep.Deltas, func(i, j int) bool {
		ri, rj := math.Abs(rep.Deltas[i].Rel), math.Abs(rep.Deltas[j].Rel)
		if ri != rj {
			return ri > rj
		}
		if rep.Deltas[i].Benchmark != rep.Deltas[j].Benchmark {
			return rep.Deltas[i].Benchmark < rep.Deltas[j].Benchmark
		}
		return rep.Deltas[i].Machine < rep.Deltas[j].Machine
	})
	return rep
}

// relDelta returns (head-base)/base, rejecting pairs with a zero or
// non-finite baseline (nothing meaningful to report against).
func relDelta(base, head float64) (float64, bool) {
	if base == 0 || math.IsNaN(base) || math.IsInf(base, 0) {
		return 0, false
	}
	rel := (head - base) / base
	if math.IsNaN(rel) || math.IsInf(rel, 0) {
		return 0, false
	}
	return rel, true
}

type seriesDelta struct {
	x, base, head, rel float64
}

// worstSeriesDelta matches series points on (X, X2) and returns the
// largest-magnitude relative move.
func worstSeriesDelta(base, head []results.Point) (seriesDelta, bool) {
	type px struct{ x, x2 float64 }
	hv := make(map[px]float64, len(head))
	for _, p := range head {
		hv[px{p.X, p.X2}] = p.Y
	}
	var worst seriesDelta
	found := false
	for _, p := range base {
		hy, ok := hv[px{p.X, p.X2}]
		if !ok {
			continue
		}
		rel, ok := relDelta(p.Y, hy)
		if !ok {
			continue
		}
		if !found || math.Abs(rel) > math.Abs(worst.rel) {
			worst = seriesDelta{x: p.X, base: p.Y, head: hy, rel: rel}
			found = true
		}
	}
	return worst, found
}

// RenderRegressions prints a regression report as an aligned table; an
// empty report renders as the single line "no significant changes",
// the shape CI gates grep for.
func RenderRegressions(w io.Writer, rep RegressionReport) {
	title := func(s, fallback string) string {
		if s == "" {
			return fallback
		}
		return s
	}
	fmt.Fprintf(w, "regressions: %s -> %s (%d pairs compared, bar max(%.3g, %.3g*spread))\n",
		title(rep.BaseID, "base"), title(rep.HeadID, "head"),
		rep.Compared, rep.Options.MinRel, rep.Options.Sigmas)
	if rep.Empty() {
		fmt.Fprintln(w, "no significant changes")
		return
	}
	fmt.Fprintf(w, "%d regression(s), %d improvement(s)\n\n", rep.Regressions, rep.Improvements)
	fmt.Fprintf(w, "%-26s %-16s %6s %12s %12s %8s  %s\n",
		"benchmark", "machine", "unit", "base", "head", "delta", "verdict")
	fmt.Fprintln(w, "--------------------------------------------------------------------------------------------")
	for _, d := range rep.Deltas {
		verdict := "improvement"
		if d.Regression {
			verdict = "REGRESSION"
		}
		name := d.Benchmark
		if d.IsSeries {
			name = fmt.Sprintf("%s@%g", d.Benchmark, d.Point)
		}
		fmt.Fprintf(w, "%-26s %-16s %6s %12.4g %12.4g %+7.2f%%  %s\n",
			name, d.Machine, d.Unit, d.Base, d.Head, 100*d.Rel, verdict)
	}
}
