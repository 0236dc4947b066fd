package stats

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMinMaxEmpty(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2.5}
	if m, _ := Min(xs); m != -1 {
		t.Errorf("Min = %v, want -1", m)
	}
	if m, _ := Max(xs); m != 7 {
		t.Errorf("Max = %v, want 7", m)
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %v, %v; want 2.5", m, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("out-of-range percentile should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("negative percentile should error")
	}
	if v, _ := Percentile([]float64{42}, 75); v != 42 {
		t.Errorf("single-sample percentile = %v, want 42", v)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPlateausStaircase(t *testing.T) {
	// A three-step staircase like a memory-latency curve:
	// L1 at ~5ns, L2 at ~50ns, memory at ~300ns.
	ys := []float64{5, 5.1, 4.9, 5, 50, 51, 49.5, 50, 300, 305, 295}
	ps := Plateaus(ys, 0.10, 0.5)
	ps = MergePlateaus(ps, 0.15)
	if len(ps) != 3 {
		t.Fatalf("got %d plateaus (%v), want 3", len(ps), ps)
	}
	wantLevels := []float64{5, 50, 300}
	for i, p := range ps {
		if math.Abs(p.Level-wantLevels[i])/wantLevels[i] > 0.05 {
			t.Errorf("plateau %d level %v, want ~%v", i, p.Level, wantLevels[i])
		}
	}
	// Coverage must be exact and contiguous.
	if ps[0].Start != 0 || ps[len(ps)-1].End != len(ys) {
		t.Errorf("plateaus do not cover input: %v", ps)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].Start != ps[i-1].End {
			t.Errorf("gap between plateaus %d and %d", i-1, i)
		}
	}
}

func TestPlateausEmptyAndSingle(t *testing.T) {
	if ps := Plateaus(nil, 0.1, 0.1); ps != nil {
		t.Errorf("Plateaus(nil) = %v, want nil", ps)
	}
	ps := Plateaus([]float64{7}, 0.1, 0.1)
	if len(ps) != 1 || ps[0].Level != 7 {
		t.Errorf("single-point plateaus = %v", ps)
	}
	if MergePlateaus(nil, 0.1) != nil {
		t.Error("MergePlateaus(nil) should be nil")
	}
}

// Property: Min <= Percentile(p) <= Max for any sample set and p.
func TestQuickPercentileBounds(t *testing.T) {
	f := func(raw []int16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		p := float64(pRaw) / 255 * 100
		v, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return v >= mn-1e-9 && v <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotonic in p.
func TestQuickPercentileMonotonic(t *testing.T) {
	f := func(raw []int16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		va, _ := Percentile(xs, pa)
		vb, _ := Percentile(xs, pb)
		return va <= vb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Plateaus always partitions the input exactly.
func TestQuickPlateausPartition(t *testing.T) {
	f := func(raw []uint8) bool {
		ys := make([]float64, len(raw))
		for i, v := range raw {
			ys[i] = float64(v)
		}
		ps := Plateaus(ys, 0.1, 1)
		if len(ys) == 0 {
			return ps == nil
		}
		if ps[0].Start != 0 || ps[len(ps)-1].End != len(ys) {
			return false
		}
		for i := 1; i < len(ps); i++ {
			if ps[i].Start != ps[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianOddEven(t *testing.T) {
	odd := []float64{9, 1, 5}
	if m, _ := Median(odd); m != 5 {
		t.Errorf("odd median = %v, want 5", m)
	}
	even := []float64{1, 2, 3, 4}
	if m, _ := Median(even); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	// Ensure sortedness is not assumed.
	shuffled := []float64{4, 1, 3, 2}
	sort.Float64s(shuffled) // sanity for the test itself
	if m, _ := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("shuffled median = %v, want 2.5", m)
	}
}

func TestSpearmanRank(t *testing.T) {
	// Perfectly concordant.
	r, err := SpearmanRank([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40})
	if err != nil || r != 1 {
		t.Errorf("concordant rank = %v, %v; want 1", r, err)
	}
	// Perfectly discordant.
	r, _ = SpearmanRank([]float64{1, 2, 3, 4}, []float64{9, 7, 5, 3})
	if r != -1 {
		t.Errorf("discordant rank = %v, want -1", r)
	}
	// Monotone transform leaves rank correlation at 1.
	xs := []float64{5, 1, 9, 3, 7}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x // monotone on positives
	}
	r, _ = SpearmanRank(xs, ys)
	if r != 1 {
		t.Errorf("monotone-transform rank = %v, want 1", r)
	}
	// Errors.
	if _, err := SpearmanRank([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("too few pairs should error")
	}
	if _, err := SpearmanRank([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := SpearmanRank([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("constant series should error")
	}
}

func TestSpearmanTies(t *testing.T) {
	// Ties get average ranks; correlation stays defined and high for
	// a mostly-concordant series.
	r, err := SpearmanRank([]float64{1, 2, 2, 4}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.9 {
		t.Errorf("tied rank = %v, want ~1", r)
	}
}

// Property: SpearmanRank is symmetric and bounded in [-1, 1].
func TestQuickSpearmanBounds(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 4 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		allSameX, allSameY := true, true
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v % 7)
			if xs[i] != xs[0] {
				allSameX = false
			}
			if ys[i] != ys[0] {
				allSameY = false
			}
		}
		if allSameX || allSameY {
			return true
		}
		ab, err1 := SpearmanRank(xs, ys)
		ba, err2 := SpearmanRank(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return ab >= -1.000001 && ab <= 1.000001 && math.Abs(ab-ba) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMAD(t *testing.T) {
	if _, err := MAD(nil); err == nil {
		t.Error("MAD of empty set should fail")
	}
	got, err := MAD([]float64{1, 2, 3, 4, 5})
	if err != nil || got != 1 {
		t.Errorf("MAD(1..5) = %v, %v, want 1", got, err)
	}
	// MAD shrugs off one wild outlier where a standard deviation explodes.
	got, err = MAD([]float64{10, 10, 10, 10, 1000})
	if err != nil || got != 0 {
		t.Errorf("MAD with outlier = %v, %v, want 0", got, err)
	}
}

func TestRelSpread(t *testing.T) {
	if _, err := RelSpread(nil); err == nil {
		t.Error("RelSpread of empty set should fail")
	}
	if _, err := RelSpread([]float64{0, 1}); err == nil {
		t.Error("RelSpread with non-positive min should fail")
	}
	// Identical samples: the min is perfectly supported.
	got, err := RelSpread([]float64{5, 5, 5})
	if err != nil || got != 0 {
		t.Errorf("RelSpread(5,5,5) = %v, %v, want 0", got, err)
	}
	// Median 15 vs min 10: spread 0.5.
	got, err = RelSpread([]float64{10, 15, 20})
	if err != nil || math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RelSpread(10,15,20) = %v, %v, want 0.5", got, err)
	}
}

// TestRelSpreadDegenerate pins the quality-gate contract for samples a
// fault-injected or quantized clock can produce: the result is always
// finite, all-identical zero samples have spread exactly 0, and a
// zero/denormal baseline with real dispersion is the typed
// ErrZeroMedian rather than NaN/Inf or a generic failure.
func TestRelSpreadDegenerate(t *testing.T) {
	// A clock that never ticked: every sample is zero. RSD := 0 —
	// this is a legitimate (degenerate but quiet) measurement, not an
	// error.
	got, err := RelSpread([]float64{0, 0, 0, 0})
	if err != nil || got != 0 {
		t.Errorf("RelSpread(0,0,0,0) = %v, %v, want 0, nil", got, err)
	}
	// Zero baseline under larger samples: relative spread is undefined;
	// the typed error lets the gate treat the measurement as degenerate.
	_, err = RelSpread([]float64{0, 1e6, 2e6})
	if !errors.Is(err, ErrZeroMedian) {
		t.Errorf("RelSpread(0,1e6,2e6) error = %v, want ErrZeroMedian", err)
	}
	// The MAD cannot be the discriminator: this set has MAD 0 (three of
	// five samples sit on the median) yet plainly disperses, so it is
	// degenerate, not quiet.
	_, err = RelSpread([]float64{0, 10, 0, 10, 10})
	if !errors.Is(err, ErrZeroMedian) {
		t.Errorf("RelSpread(0,10,0,10,10) error = %v, want ErrZeroMedian", err)
	}
	// Denormal baseline: same story — the division would overflow.
	_, err = RelSpread([]float64{5e-324, 1, 2})
	if !errors.Is(err, ErrZeroMedian) {
		t.Errorf("RelSpread(denormal,1,2) error = %v, want ErrZeroMedian", err)
	}
	// Negative samples are still rejected outright (durations cannot be
	// negative) and never reach the degenerate path.
	if _, err := RelSpread([]float64{-1, 0, 1}); err == nil || errors.Is(err, ErrZeroMedian) {
		t.Errorf("RelSpread(-1,0,1) error = %v, want a non-typed rejection", err)
	}
	// Every defined result must be finite.
	for _, xs := range [][]float64{{0, 0, 0}, {1, 1, 1}, {1, 2, 3}, {minNormal, 1}} {
		if got, err := RelSpread(xs); err == nil && (math.IsNaN(got) || math.IsInf(got, 0)) {
			t.Errorf("RelSpread(%v) = %v, want finite", xs, got)
		}
	}
}

// The planner's stopping rule evaluates percentiles of refinement
// windows that can be a single sample or carry a NaN from a degenerate
// probe; these edges are pinned, not left to sort/float behavior.
func TestPercentileEdges(t *testing.T) {
	// p=0 and p=100 are exactly the extremes, no interpolation drift.
	xs := []float64{0.1 + 0.2, 0.3, 7, -4} // 0.1+0.2 != 0.3 in floats
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if v, err := Percentile(xs, 0); err != nil || v != mn {
		t.Errorf("Percentile(p=0) = %v, %v; want exact min %v", v, err, mn)
	}
	if v, err := Percentile(xs, 100); err != nil || v != mx {
		t.Errorf("Percentile(p=100) = %v, %v; want exact max %v", v, err, mx)
	}
	// Single sample: every p returns the sample.
	for _, p := range []float64{0, 13.7, 50, 100} {
		if v, err := Percentile([]float64{42}, p); err != nil || v != 42 {
			t.Errorf("single-sample Percentile(p=%v) = %v, %v; want 42", p, v, err)
		}
	}
	// NaN p must be rejected: it fails no ordered comparison, so the
	// old range check let it through to a garbage rank.
	if _, err := Percentile(xs, math.NaN()); err == nil {
		t.Error("Percentile(NaN p) should error")
	}
	// NaN samples are rejected with the typed error, like results.DB.Add.
	for _, bad := range [][]float64{
		{math.NaN()},
		{1, math.NaN(), 3},
		{math.NaN(), math.NaN()},
	} {
		if _, err := Percentile(bad, 50); !errors.Is(err, ErrNaN) {
			t.Errorf("Percentile(%v) error = %v, want ErrNaN", bad, err)
		}
	}
	// Median and MAD ride on Percentile and inherit the rejection.
	if _, err := Median([]float64{math.NaN(), 1}); !errors.Is(err, ErrNaN) {
		t.Errorf("Median(NaN,1) error = %v, want ErrNaN", err)
	}
	if _, err := MAD([]float64{math.NaN(), 1}); !errors.Is(err, ErrNaN) {
		t.Errorf("MAD(NaN,1) error = %v, want ErrNaN", err)
	}
}

// Property: P0/P100 equal Min/Max exactly (not approximately) for any
// NaN-free sample set.
func TestQuickPercentileExtremes(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		p0, e0 := Percentile(xs, 0)
		p100, e100 := Percentile(xs, 100)
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return e0 == nil && e100 == nil && p0 == mn && p100 == mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Zero, negative and NaN tolerances have pinned semantics: zero means
// exact equality; negative and NaN clamp to zero instead of inverting
// the comparison (a negative tol classified even identical neighbors
// as different).
func TestPlateausToleranceClamping(t *testing.T) {
	ys := []float64{5, 5, 5, 7, 7}
	want := []Plateau{{Start: 0, End: 3, Level: 5}, {Start: 3, End: 5, Level: 7}}
	for _, tol := range []struct{ rel, abs float64 }{
		{0, 0},
		{-0.25, -2},
		{math.NaN(), math.NaN()},
		{-1e300, 0},
	} {
		ps := Plateaus(ys, tol.rel, tol.abs)
		if len(ps) != len(want) {
			t.Fatalf("Plateaus(tol=%+v) = %v, want %v", tol, ps, want)
		}
		for i := range want {
			if ps[i] != want[i] {
				t.Errorf("Plateaus(tol=%+v)[%d] = %+v, want %+v", tol, i, ps[i], want[i])
			}
		}
	}
	// MergePlateaus: negative/NaN relTol merges only exactly-equal levels.
	ps := []Plateau{{0, 2, 10}, {2, 4, 10}, {4, 6, 11}}
	for _, rel := range []float64{0, -0.3, math.NaN()} {
		got := MergePlateaus(ps, rel)
		if len(got) != 2 || got[0] != (Plateau{0, 4, 10}) || got[1] != (Plateau{4, 6, 11}) {
			t.Errorf("MergePlateaus(relTol=%v) = %v, want exact-equality merge", rel, got)
		}
	}
}

// A descending (or negative-valued) staircase must segment like its
// ascending mirror: the relative tolerance is taken against the level's
// magnitude, where the raw product level*relTol used to go negative.
func TestPlateausDescendingAndNegative(t *testing.T) {
	up := []float64{5, 5.1, 4.9, 50, 51, 49, 300, 305, 295}
	down := make([]float64, len(up))
	neg := make([]float64, len(up))
	for i, v := range up {
		down[len(up)-1-i] = v
		neg[i] = -v
	}
	nUp := len(Plateaus(up, 0.10, 0.5))
	if nDown := len(Plateaus(down, 0.10, 0.5)); nDown != nUp {
		t.Errorf("descending staircase: %d plateaus, ascending %d", nDown, nUp)
	}
	if nNeg := len(Plateaus(neg, 0.10, 0.5)); nNeg != nUp {
		t.Errorf("negated staircase: %d plateaus, ascending %d", nNeg, nUp)
	}
}

// A monotone ramp — what the planner's coarse pass sees across a
// hierarchy transition — must still partition the input contiguously
// even though running-mean chaining can stretch plateaus along the
// slope; and with zero tolerance every distinct sample is its own
// plateau.
func TestPlateausMonotoneRamp(t *testing.T) {
	ramp := make([]float64, 32)
	for i := range ramp {
		ramp[i] = float64(i * i)
	}
	ps := Plateaus(ramp, 0.25, 2)
	if ps[0].Start != 0 || ps[len(ps)-1].End != len(ramp) {
		t.Fatalf("ramp plateaus do not cover input: %v", ps)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].Start != ps[i-1].End {
			t.Fatalf("gap between ramp plateaus %d and %d", i-1, i)
		}
	}
	exact := Plateaus([]float64{1, 2, 3, 4}, 0, 0)
	if len(exact) != 4 {
		t.Errorf("zero-tolerance ramp: %d plateaus, want one per distinct sample", len(exact))
	}
	// Single-point series: one plateau covering the point, any tol.
	one := Plateaus([]float64{-3}, -1, math.NaN())
	if len(one) != 1 || one[0] != (Plateau{0, 1, -3}) {
		t.Errorf("single-point plateaus = %v", one)
	}
}
