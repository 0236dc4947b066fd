// Package stats provides the small statistics kit used throughout the
// benchmark suite: order statistics, the mean, robust spread, rank
// correlation, and plateau (step) detection on measured curves.
//
// lmbench's reporting policy is built on order statistics rather than
// means: the paper compensates for run-to-run variability (up to 30% on
// the context-switch benchmark) by taking the minimum of repeated runs,
// and its tables are sorted best-to-worst. This package supplies those
// primitives for the harness and the analysis code.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// ErrNaN is returned by order statistics when the sample set contains
// NaN. NaN is unordered, so sorting a contaminated set silently
// produces an arbitrary permutation and an arbitrary percentile; the
// results layer already refuses NaN at the database boundary
// (results.DB.Add), and the stats layer matches that policy rather
// than returning garbage.
var ErrNaN = errors.New("stats: NaN sample")

// Min returns the smallest value in xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest value in xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Median returns the median of xs.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs is not modified.
//
// Pinned edge cases (the adaptive sweep planner's stopping rule calls
// this on refinement windows as small as one sample, where every edge
// below actually occurs):
//   - p=0 returns the minimum and p=100 the maximum, exactly — no
//     interpolation arithmetic that could drift off the extremes.
//   - A single-sample set returns that sample for every p.
//   - A NaN p is rejected (it is not in [0,100]; the comparison-based
//     range check alone would let it through and index with a garbage
//     rank), as is any NaN-contaminated sample set (ErrNaN) — NaN is
//     unordered and corrupts the sort, mirroring results.DB.Add's
//     refusal to store NaN.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if math.IsNaN(p) || p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			return 0, ErrNaN
		}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	if p == 0 {
		return sorted[0], nil
	}
	if p == 100 {
		return sorted[len(sorted)-1], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// MAD returns the median absolute deviation of xs: the median of
// |x - median(xs)|. It is the robust spread estimator behind the
// harness's measurement quality gate — unlike the standard deviation it
// is not dominated by the occasional scheduling hiccup that min-of-N
// reporting is designed to survive.
func MAD(xs []float64) (float64, error) {
	med, err := Median(xs)
	if err != nil {
		return 0, err
	}
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return Median(devs)
}

// ErrZeroMedian is returned by RelSpread when the sample set's
// baseline (its minimum) is zero or denormal while other samples are
// not. Dividing by such a baseline would produce NaN/Inf; callers that
// promise finite statistics (the suite's quality.* attrs) must treat
// the measurement as degenerate instead. A fault-injected or
// quantized clock returning identical zero samples does NOT hit this
// error: when every sample is (effectively) zero the set has no
// dispersion and its spread is defined as exactly 0.
var ErrZeroMedian = errors.New("stats: zero or denormal median/baseline with nonzero spread")

// minNormal is the smallest positive normal float64; anything below it
// (zero or denormal) is useless as a division baseline.
const minNormal = 0x1p-1022

// RelSpread returns the relative spread of the min-of-N sample set:
// (median - min) / min. lmbench reports the minimum of repeated
// measurements; this statistic says how far the typical sample sits
// above that minimum. A small value means the minimum is well
// supported by the rest of the samples; a large value means the run
// was noisy and the reported minimum may be a fluke. Samples are
// durations and must be non-negative.
//
// Degenerate sets are defined rather than left to float division: an
// all-(effectively-)zero sample set — e.g. a quantized clock that
// never ticked — has spread 0 by definition; a zero baseline under
// larger samples has no meaningful relative spread and returns
// ErrZeroMedian. The returned value is always finite.
func RelSpread(xs []float64) (float64, error) {
	min, err := Min(xs)
	if err != nil {
		return 0, err
	}
	if min < 0 {
		return 0, errors.New("stats: relative spread requires non-negative samples")
	}
	if min < minNormal {
		// Zero/denormal baseline: the ratio is undefined. All-zero
		// samples legitimately have no spread; anything else is a
		// degenerate measurement the caller must handle. (The max, not
		// the MAD, is the discriminator: [0, t, 0, t, t] has MAD 0 yet
		// plainly disperses.)
		if max, err := Max(xs); err == nil && max < minNormal {
			return 0, nil
		}
		return 0, ErrZeroMedian
	}
	med, _ := Median(xs)
	return (med - min) / min, nil
}

// SpearmanRank returns Spearman's rank correlation coefficient between
// xs and ys: +1 when the two series rank their elements identically,
// -1 when exactly opposite. It is the suite's measure of *shape*
// agreement between the paper's table and a regenerated one — who
// wins and who loses, independent of absolute values. Ties receive
// fractional (average) ranks.
func SpearmanRank(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: mismatched rank inputs")
	}
	if len(xs) < 3 {
		return 0, errors.New("stats: rank correlation requires at least three pairs")
	}
	rx := ranks(xs)
	ry := ranks(ys)
	fit, err := pearson(rx, ry)
	if err != nil {
		return 0, err
	}
	return fit, nil
}

// ranks assigns average ranks (1-based) to the values.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// pearson computes the Pearson correlation of two equal-length series.
func pearson(xs, ys []float64) (float64, error) {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var num, dx, dy float64
	for i := range xs {
		a, b := xs[i]-mx, ys[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0, errors.New("stats: degenerate correlation (constant series)")
	}
	return num / math.Sqrt(dx*dy), nil
}

// Plateau describes one flat region detected in a curve: the half-open
// index range [Start, End) of the input points it covers and the
// representative (median) level of the region.
type Plateau struct {
	Start, End int
	Level      float64
}

// Plateaus segments ys into flat regions. Two consecutive points belong
// to the same plateau when they differ by no more than relTol of the
// running plateau level (with absTol as a floor for near-zero levels).
// This is the primitive behind the Table-6 extraction: the memory
// latency curve is a staircase whose steps are the cache levels.
//
// Tolerance semantics are pinned: a zero tolerance means exact
// equality, and negative or NaN tolerances clamp to zero rather than
// silently flipping the comparison (a negative tol would make even
// identical points "differ", splitting every sample into its own
// plateau; before clamping, so would a descending curve, because the
// raw product level*relTol went negative with the level). The relative
// tolerance is taken against the magnitude of the running level, so
// descending or negative-valued series segment the same way their
// mirror images do. A single-point series is one plateau at that value.
func Plateaus(ys []float64, relTol, absTol float64) []Plateau {
	if len(ys) == 0 {
		return nil
	}
	relTol = clampTol(relTol)
	absTol = clampTol(absTol)
	var out []Plateau
	start := 0
	level := ys[0]
	count := 1.0
	for i := 1; i < len(ys); i++ {
		tol := math.Abs(level) * relTol
		if tol < absTol {
			tol = absTol
		}
		if math.Abs(ys[i]-level) <= tol {
			// Extend the plateau, tracking the running mean as level.
			level = (level*count + ys[i]) / (count + 1)
			count++
			continue
		}
		out = append(out, Plateau{Start: start, End: i, Level: level})
		start = i
		level = ys[i]
		count = 1
	}
	out = append(out, Plateau{Start: start, End: len(ys), Level: level})
	return out
}

// clampTol normalizes a caller-supplied tolerance the way
// Options.Normalize treats its knobs: out-of-domain values are not
// allowed to change the comparison's meaning. Negative and NaN
// tolerances clamp to 0 (exact equality), the strictest valid setting.
func clampTol(tol float64) float64 {
	if math.IsNaN(tol) || tol < 0 {
		return 0
	}
	return tol
}

// MergePlateaus coalesces adjacent plateaus whose levels are within
// relTol of each other; the merged level is the length-weighted mean.
// Useful after Plateaus when noise split one logical step in two.
// relTol follows the same clamping rule as Plateaus: zero means exact
// equality, negative/NaN clamp to zero.
func MergePlateaus(ps []Plateau, relTol float64) []Plateau {
	if len(ps) == 0 {
		return nil
	}
	relTol = clampTol(relTol)
	out := []Plateau{ps[0]}
	for _, p := range ps[1:] {
		last := &out[len(out)-1]
		ref := math.Max(math.Abs(last.Level), math.Abs(p.Level))
		if math.Abs(p.Level-last.Level) <= ref*relTol {
			wa := float64(last.End - last.Start)
			wb := float64(p.End - p.Start)
			last.Level = (last.Level*wa + p.Level*wb) / (wa + wb)
			last.End = p.End
			continue
		}
		out = append(out, p)
	}
	return out
}
