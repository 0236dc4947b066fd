package calibrate

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
)

// pinnedFits are the fits whose outcomes TestCalibrateFitsPinned pins:
// the three cross-profile fits of perfbench's calibrate-fit workload,
// each against a target measured the way that workload measures it,
// and the paper fit of DEC Alpha@150, which does not converge and so
// exercises the bisection and the verification re-fit.
var pinnedFits = []struct {
	base, target string
	paper        bool
	sha256       string
}{
	{base: "Linux/i586", target: "Linux/i686", sha256: "e2a58316b7a5758afcd07e99512b04cd4fc49624019ab8e8ceb8e5a1c8199cea"},
	{base: "Sun Ultra1", target: "SGI Indigo2", sha256: "58e88a0c397a50f2634d2514d481f37c3911186f0eb2c36e6d09ba789fbfa983"},
	{base: "HP K210", target: "IBM Power2", sha256: "9effdfa1951610b53870581ae44fdf1e16ce72ba0a503897a5594edee22f0075"},
	{base: "DEC Alpha@150", target: "DEC Alpha@150", paper: true, sha256: "e8da4cda50f9b12e1ecaa2561fd7a51b042963a731288bc2bb33dacbba872ba4"},
}

// TestCalibrateFitsPinned is the calibrator's behavioural contract: a
// fit within its budget is a pure function of the base profile and
// the target, so each pinned fit's outcome (evaluation counts, every
// per-parameter result and event, the fitted profile and the
// verification database) hashes to a recorded SHA-256 at any
// GOMAXPROCS.
func TestCalibrateFitsPinned(t *testing.T) {
	for _, fit := range pinnedFits {
		t.Run(fit.base+"->"+fit.target, func(t *testing.T) {
			base, ok := machines.ByName(fit.base)
			if !ok {
				t.Fatalf("no profile %q", fit.base)
			}
			var target Target
			var err error
			if fit.paper {
				target, err = FromPaper(fit.target)
			} else {
				target, err = measuredTarget(t, fit.target)
			}
			if err != nil {
				t.Fatal(err)
			}
			var events []core.Event
			res, err := Calibrate(context.Background(), base, target, Options{
				Workers: 2, Events: &captureSink{out: &events},
			})
			if err != nil {
				t.Fatalf("Calibrate: %v", err)
			}
			t.Logf("evals %d, converged %t, %d params", res.Evals, res.Converged, len(res.Params))
			if got := fitDigest(t, res, events); got != fit.sha256 {
				t.Errorf("fit digest = %s, want %s", got, fit.sha256)
			}
		})
	}
}

// measuredTarget measures the named profile as perfbench's
// calibrate-fit workload does: Table 6 with the chase sweep grown to
// four times the total cache, every other fitted group with the fast
// candidate options.
func measuredTarget(t *testing.T, name string) (Target, error) {
	t.Helper()
	p, ok := machines.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	m, err := machines.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range p.Caches {
		total += c.Size
	}
	hier := fastOpts()
	hier.MaxChaseSize = max(hier.MaxChaseSize, 4*total)
	hier.MemSize = max(hier.MemSize, hier.MaxChaseSize)
	rest := map[string]bool{}
	for _, g := range []string{"table2", "table7", "table8", "table9", "table10", "table12", "table13", "table15", "table16", "table17"} {
		rest[g] = true
	}
	db := &results.DB{}
	for _, s := range []*core.Suite{
		{M: m, Opts: hier, Only: map[string]bool{"table6": true}, MaxRSD: 0.05},
		{M: m, Opts: fastOpts(), Only: rest, MaxRSD: 0.05},
	} {
		if _, err := s.Run(context.Background(), db); err != nil {
			t.Fatal(err)
		}
	}
	return FromDB(db, name)
}

// fitDigest hashes everything a fit decides: the evaluation count and
// verdict, the fitted profile's fingerprint, every ParamResult field,
// each CalibrateParam event's payload and the verification database's
// canonical encoding. Elapsed and event times are left out.
func fitDigest(t *testing.T, res *Result, events []core.Event) string {
	t.Helper()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	h := sha256.New()
	fmt.Fprintf(h, "evals=%d converged=%t\n", res.Evals, res.Converged)
	fp, err := res.Profile.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(h, fp)
	for _, p := range res.Params {
		fmt.Fprintf(h, "param %q %q %s %s %s %s %s %s %d %t %q\n",
			p.Param, p.Benchmark, g(p.Target), g(p.Initial), g(p.Fitted), g(p.Measured),
			g(p.RelErr), g(p.Tolerance), p.Evals, p.Converged, p.Err)
	}
	for _, e := range events {
		if e.Kind == core.CalibrateParam {
			fmt.Fprintf(h, "event %q %d %s %q\n", e.Experiment, e.Attempt, g(e.Spread), e.Err)
		}
	}
	if err := res.DB.Encode(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
