package core_test

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

// TestAdaptiveSweepMatchesSerial is the adaptive determinism contract:
// planning decisions depend only on measured point values, never on
// execution order, so an adaptive sweep must encode byte-identically
// at every GOMAXPROCS. Run with -race (make race covers this package)
// it also proves the planner's refinement batches stay disjoint.
func TestAdaptiveSweepMatchesSerial(t *testing.T) {
	sweeps := []struct {
		name string
		run  func(context.Context, core.Machine, core.Options) ([]results.Entry, error)
	}{
		{"figure1", core.MemLatencySweep},
		{"memvar", core.ExtMemVariants},
	}
	for _, sweep := range sweeps {
		t.Run(sweep.name, func(t *testing.T) {
			opts := smallOpts()
			opts.SweepMode = core.SweepAdaptive
			setProcs(t, 1)
			serial, err := sweep.run(context.Background(), simMachine(t, "Linux/i686"), opts)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeEntries(t, serial)
			for _, procs := range []int{2, 4, 16} {
				setProcs(t, procs)
				got, err := sweep.run(context.Background(), simMachine(t, "Linux/i686"), opts)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if enc := encodeEntries(t, got); !bytes.Equal(enc, want) {
					t.Errorf("GOMAXPROCS=%d: encoded adaptive sweep differs from serial run", procs)
				}
			}
		})
	}
}

// parseSyntheticRanges expands a "2-4,9" sweep.synthetic attr into the
// set of series positions it names.
func parseSyntheticRanges(t *testing.T, s string) map[int]bool {
	t.Helper()
	out := map[int]bool{}
	if s == "" {
		return out
	}
	for _, part := range strings.Split(s, ",") {
		lo, hi, found := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			t.Fatalf("bad synthetic range %q: %v", s, err)
		}
		b := a
		if found {
			if b, err = strconv.Atoi(hi); err != nil {
				t.Fatalf("bad synthetic range %q: %v", s, err)
			}
		}
		for i := a; i <= b; i++ {
			out[i] = true
		}
	}
	return out
}

// TestAdaptiveSweepMarksSynthetic pins the planner's result contract:
// every adaptive entry is marked with the mode and its measured/
// synthetic point counts, the counts add up to the series length, the
// synthetic ranges agree with the counts, and — the accuracy half —
// every point not marked synthetic is byte-for-byte the exhaustive
// sweep's value at the same grid position.
func TestAdaptiveSweepMarksSynthetic(t *testing.T) {
	opts := smallOpts()
	exhaustive, err := core.MemLatencySweep(context.Background(), simMachine(t, "Linux/i686"), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.SweepMode = core.SweepAdaptive
	adaptive, err := core.MemLatencySweep(context.Background(), simMachine(t, "Linux/i686"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive) != len(exhaustive) {
		t.Fatalf("adaptive produced %d entries, exhaustive %d", len(adaptive), len(exhaustive))
	}
	totalSynthetic := 0
	for ei, e := range adaptive {
		if len(e.Series) == 0 {
			// Scalars (.mem latency) read the sweep's last point, which
			// the planner always measures; they carry no marks.
			if e.Attrs["sweep.mode"] != "" && e.Attrs["sweep.mode"] != string(core.SweepAdaptive) {
				t.Errorf("%s: unexpected sweep.mode %q", e.Benchmark, e.Attrs["sweep.mode"])
			}
			if e.Scalar != exhaustive[ei].Scalar {
				t.Errorf("%s: scalar %v != exhaustive %v", e.Benchmark, e.Scalar, exhaustive[ei].Scalar)
			}
			continue
		}
		if got := e.Attrs["sweep.mode"]; got != string(core.SweepAdaptive) {
			t.Fatalf("%s: sweep.mode = %q, want %q", e.Benchmark, got, core.SweepAdaptive)
		}
		meas, err := strconv.Atoi(e.Attrs["sweep.points_measured"])
		if err != nil {
			t.Fatalf("%s: sweep.points_measured: %v", e.Benchmark, err)
		}
		synth, err := strconv.Atoi(e.Attrs["sweep.points_synthetic"])
		if err != nil {
			t.Fatalf("%s: sweep.points_synthetic: %v", e.Benchmark, err)
		}
		if meas+synth != len(e.Series) {
			t.Errorf("%s: measured %d + synthetic %d != %d points", e.Benchmark, meas, synth, len(e.Series))
		}
		synthetic := parseSyntheticRanges(t, e.Attrs["sweep.synthetic"])
		if len(synthetic) != synth {
			t.Errorf("%s: sweep.synthetic names %d points, count says %d", e.Benchmark, len(synthetic), synth)
		}
		totalSynthetic += synth
		for i, p := range e.Series {
			ref := exhaustive[ei].Series[i]
			if p.X != ref.X || p.X2 != ref.X2 {
				t.Fatalf("%s[%d]: grid (%v,%v) != exhaustive (%v,%v)", e.Benchmark, i, p.X, p.X2, ref.X, ref.X2)
			}
			if !synthetic[i] && p.Y != ref.Y {
				t.Errorf("%s[%d]: measured point %v != exhaustive %v", e.Benchmark, i, p.Y, ref.Y)
			}
		}
	}
	if totalSynthetic == 0 {
		t.Error("adaptive sweep synthesized no points — the planner saved nothing")
	}
}

func TestNormalizeSweepMode(t *testing.T) {
	for _, mode := range []core.SweepMode{"", core.SweepExhaustive, core.SweepAdaptive} {
		opts := core.Options{SweepMode: mode}
		got, err := opts.Normalize()
		if err != nil {
			t.Fatalf("Normalize(%q): %v", mode, err)
		}
		want := mode
		if want == "" {
			want = core.SweepExhaustive
		}
		if got.SweepMode != want {
			t.Errorf("Normalize(%q).SweepMode = %q, want %q", mode, got.SweepMode, want)
		}
	}
	opts := core.Options{SweepMode: "bogus"}
	if _, err := opts.Normalize(); err == nil {
		t.Fatal("Normalize accepted unknown SweepMode")
	}
}
