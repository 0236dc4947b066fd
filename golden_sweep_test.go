package lmbench_test

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
)

// Adaptive sweep planning is exempt from the byte-identity contract —
// it deliberately measures fewer points — so it carries an accuracy
// contract instead, checked here across every built-in machine
// profile:
//
//   - the adaptive grid is the exhaustive grid (same X/X2 at every
//     index), with measured points bit-identical to the exhaustive run
//     and synthetic points explicitly marked;
//   - the Table-6 extraction (analysis.ExtractHierarchy) finds the
//     same hierarchy: identical level count, identical level sizes and
//     line size, and level/memory latencies within the extraction's
//     own plateau tolerance (25%);
//   - the planner pays for its exemption: at most half the grid is
//     measured (the >=2x point reduction of the sweep-planning ledger,
//     `git show cb85fb2:BENCH_pr9.json`);
//   - results are byte-identical at every GOMAXPROCS, so the accuracy
//     gate transfers to parallel and fleet runs.
//
// Exhaustive mode needs no gate here: goldenOpts' zero SweepMode
// normalizes to SweepExhaustive, so TestGoldenDatabaseByteIdentical
// already pins the default path bit-for-bit.

const sweepLatencyTolerance = 0.25

func sweepOn(t *testing.T, name string, opts core.Options) []results.Entry {
	t.Helper()
	p, _ := machines.ByName(name)
	m, err := machines.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := core.MemLatencySweep(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func encodeDB(t *testing.T, entries []results.Entry) []byte {
	t.Helper()
	db := &results.DB{}
	for _, e := range entries {
		if err := db.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func withinTol(got, want, tol float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	bound := want * tol
	if bound < 0 {
		bound = -bound
	}
	return diff <= bound
}

func TestAdaptiveSweepAccuracyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the memory sweep 4x on every profile; skipped with -short")
	}
	for _, name := range machines.Names() {
		t.Run(name, func(t *testing.T) {
			opts := goldenOpts()
			exhaustive := sweepOn(t, name, opts)
			opts.SweepMode = core.SweepAdaptive
			adaptive := sweepOn(t, name, opts)

			// Worker-count invariance on the adaptive path: the runs
			// above used the default GOMAXPROCS.
			want := encodeDB(t, adaptive)
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got := encodeDB(t, sweepOn(t, name, opts))
				runtime.GOMAXPROCS(prev)
				if !bytes.Equal(got, want) {
					t.Errorf("GOMAXPROCS=%d: adaptive sweep not byte-identical to the GOMAXPROCS=%d run", procs, prev)
				}
			}

			exh, adp := exhaustive[0].Series, adaptive[0].Series
			if len(adp) != len(exh) {
				t.Fatalf("adaptive grid has %d points, exhaustive %d", len(adp), len(exh))
			}
			for i := range adp {
				if adp[i].X != exh[i].X || adp[i].X2 != exh[i].X2 {
					t.Fatalf("grid mismatch at %d: (%v,%v) != (%v,%v)",
						i, adp[i].X, adp[i].X2, exh[i].X, exh[i].X2)
				}
			}

			// Point reduction: the planner must measure at most half
			// the grid under the full-size golden options.
			measured, err := strconv.Atoi(adaptive[0].Attrs["sweep.points_measured"])
			if err != nil {
				t.Fatalf("sweep.points_measured: %v", err)
			}
			if 2*measured > len(exh) {
				t.Errorf("planner measured %d of %d points — less than 2x reduction", measured, len(exh))
			}

			// The extraction must find the same hierarchy.
			he, err := analysis.ExtractHierarchy(exh)
			if err != nil {
				t.Fatal(err)
			}
			ha, err := analysis.ExtractHierarchy(adp)
			if err != nil {
				t.Fatalf("extraction on adaptive series: %v", err)
			}
			if len(ha.Levels) != len(he.Levels) {
				t.Fatalf("adaptive extraction found %d levels, exhaustive %d", len(ha.Levels), len(he.Levels))
			}
			for i := range ha.Levels {
				if ha.Levels[i].Size != he.Levels[i].Size {
					t.Errorf("level %d size %d != exhaustive %d", i, ha.Levels[i].Size, he.Levels[i].Size)
				}
				if !withinTol(ha.Levels[i].LatencyNS, he.Levels[i].LatencyNS, sweepLatencyTolerance) {
					t.Errorf("level %d latency %.2f outside %.0f%% of exhaustive %.2f",
						i, ha.Levels[i].LatencyNS, sweepLatencyTolerance*100, he.Levels[i].LatencyNS)
				}
			}
			if !withinTol(ha.MemLatencyNS, he.MemLatencyNS, sweepLatencyTolerance) {
				t.Errorf("memory latency %.2f outside %.0f%% of exhaustive %.2f",
					ha.MemLatencyNS, sweepLatencyTolerance*100, he.MemLatencyNS)
			}
			if ha.LineSize != he.LineSize {
				t.Errorf("line size %d != exhaustive %d", ha.LineSize, he.LineSize)
			}
		})
	}
}
