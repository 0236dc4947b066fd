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
//
// outcome hashes what the fit decides and sha256 that plus what it
// cost: every evaluation count, of which evals is the total. A change
// that only saves evaluations moves sha256 and evals, never outcome.
var pinnedFits = []struct {
	base, target string
	paper        bool
	outcome      string
	evals        int
	sha256       string
}{
	{base: "Linux/i586", target: "Linux/i686", outcome: "448e94c28f35d1abbd96406bb49ca76b38eae18cded8a0e579f3a15172a73dad", evals: 67,
		sha256: "cb32a5f0eb9a292b684c09a3b024fc1f31bf64d325af1f482f4b1a15ed5d679f"},
	{base: "Sun Ultra1", target: "SGI Indigo2", outcome: "007ac545a4fd5ed44bd2deaac864113a91841636049f56c38353794cd3b0eb96", evals: 53,
		sha256: "24593c09cd86200363b6e0c2dc422c39ad59e1062bafef407d32d72e94ba605d"},
	{base: "HP K210", target: "IBM Power2", outcome: "49f865ff8c124736e1d8e6fe1e6594779a66ec1b2a646e868ff8ef6274980006", evals: 57,
		sha256: "9d19d04558dd0f9e03aa78cfc28d6051653618bec547b2a33ceea823002a7265"},
	{base: "DEC Alpha@150", target: "DEC Alpha@150", paper: true, outcome: "c422bf6a6e68542c399e70b70dd5e86c08295d285a42ca500fbdaf21b5dc4e02", evals: 54,
		sha256: "c8ac602e67e3794dcb6a97bac3979ab56a0db3e03edcbc0ee5bcda5ade575561"},
}

// TestCalibrateFitsPinned is the calibrator's behavioural contract: a
// fit within its budget is a pure function of the base profile and
// the target, so each pinned fit's outcome (every per-parameter result
// and event, the fitted profile and the verification database) and its
// evaluation counts hash to recorded SHA-256s at any GOMAXPROCS.
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
			if got := outcomeDigest(t, res, events); got != fit.outcome {
				t.Errorf("outcome digest = %s, want %s", got, fit.outcome)
			}
			if res.Evals != fit.evals {
				t.Errorf("evals = %d, want %d", res.Evals, fit.evals)
			}
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

// fitDigest hashes everything a fit decides and what it cost: the
// evaluation count and verdict, the fitted profile's fingerprint, every
// ParamResult field, each CalibrateParam event's payload and the
// verification database's canonical encoding. Elapsed and event times
// are left out.
func fitDigest(t *testing.T, res *Result, events []core.Event) string {
	return digestFit(t, res, events, true)
}

// outcomeDigest is fitDigest without the evaluation counts: Result.Evals,
// each ParamResult.Evals and each CalibrateParam event's Attempt.
func outcomeDigest(t *testing.T, res *Result, events []core.Event) string {
	return digestFit(t, res, events, false)
}

func digestFit(t *testing.T, res *Result, events []core.Event, counts bool) string {
	t.Helper()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	n := func(v int) int {
		if counts {
			return v
		}
		return 0
	}
	h := sha256.New()
	if counts {
		fmt.Fprintf(h, "evals=%d converged=%t\n", res.Evals, res.Converged)
	} else {
		fmt.Fprintf(h, "converged=%t\n", res.Converged)
	}
	fp, err := res.Profile.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(h, fp)
	for _, p := range res.Params {
		fmt.Fprintf(h, "param %q %q %s %s %s %s %s %s %d %t %q\n",
			p.Param, p.Benchmark, g(p.Target), g(p.Initial), g(p.Fitted), g(p.Measured),
			g(p.RelErr), g(p.Tolerance), n(p.Evals), p.Converged, p.Err)
	}
	for _, e := range events {
		if e.Kind == core.CalibrateParam {
			fmt.Fprintf(h, "event %q %d %s %q\n", e.Experiment, n(e.Attempt), g(e.Spread), e.Err)
		}
	}
	if err := res.DB.Encode(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
