// Package calibrate fits machines.Profile parameters to target
// primitive measurements: the paper's numbers (internal/paperdata), a
// stored run from the results store, or measurements of a real machine
// taken with the host backend. It turns the simulator from a catalog
// you transcribe into a model you fit — ROADMAP item 3, grounded in
// Esposito et al.'s processor-catalog evaluation.
//
// The fitter is coordinate descent over the profile's observable
// fields. Monotone continuous parameters (syscall/FS costs, cache and
// DRAM latencies, bandwidths) descend by bracketed bisection, which
// rests on the same monotone response as machines.Build's inversions
// (Build's DRAM inversion bisects prices of streams it simulates once
// per cache geometry, so a candidate that moves only a bandwidth or
// the DRAM latency simulates no stream); discrete geometry
// (cache sizes, line size) walks a log grid. Every candidate
// evaluation is a normal suite run — adaptive sweeps, the quality
// gate, the unit cache keyed by the candidate's own fingerprint — so
// the inner loop reuses every layer below it and warm re-evaluations
// of an unchanged candidate are nearly free.
package calibrate

import (
	"fmt"
	"os"
	"sort"
	"strconv"

	"repro/internal/paperdata"
	"repro/internal/results"
)

// Target is the set of measurements a calibration descends toward,
// keyed by benchmark name ("lat_syscall", "bw_mem.read",
// "cache.l1_lat", ...), in each benchmark's natural unit.
type Target struct {
	// Machine is the results-database machine name the values were
	// recorded under — and the name the fitted profile keeps.
	Machine string
	// Values maps benchmark -> target scalar. Only parameters whose
	// benchmark appears here are fitted.
	Values map[string]float64
	// Spread maps benchmark -> relative measurement spread (the
	// quality gate's quality.spread attr) where the source recorded
	// one. The fitter widens a parameter's convergence tolerance to
	// 2x the target's own spread: there is no point fitting tighter
	// than the measurement noise.
	Spread map[string]float64
}

// Benchmarks lists the target's benchmark keys, sorted.
func (t Target) Benchmarks() []string {
	out := make([]string, 0, len(t.Values))
	for k := range t.Values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FromDB extracts the scalar measurements for one machine from a
// results database. Series-only entries (Figure-1 curves) are skipped:
// the cache.* extraction scalars already carry the hierarchy, and
// scalars are what the objective scores.
func FromDB(db *results.DB, machine string) (Target, error) {
	t := Target{Machine: machine, Values: map[string]float64{}, Spread: map[string]float64{}}
	for _, e := range db.Entries() {
		if e.Machine != machine || e.Scalar == 0 {
			continue
		}
		t.Values[e.Benchmark] = e.Scalar
		if s, ok := e.Attrs["quality.spread"]; ok {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				t.Spread[e.Benchmark] = v
			}
		}
	}
	if len(t.Values) == 0 {
		return t, fmt.Errorf("calibrate: no scalar measurements for machine %q", machine)
	}
	return t, nil
}

// FromPaper targets the paper's own table values for one of its
// machines (the names match the built-in profiles).
func FromPaper(machine string) (Target, error) {
	return FromDB(paperdata.DB(), machine)
}

// FromFile reads a results database in the standard text encoding
// (what `lmbench -out` writes) and extracts machine's scalars.
func FromFile(path, machine string) (Target, error) {
	f, err := os.Open(path)
	if err != nil {
		return Target{}, err
	}
	defer f.Close()
	db, err := results.Decode(f)
	if err != nil {
		return Target{}, fmt.Errorf("%s: %w", path, err)
	}
	return FromDB(db, machine)
}
