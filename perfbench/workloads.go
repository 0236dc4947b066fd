package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/ptime"
	"repro/internal/timing"
)

// goldenDBSHA256 is the hash the repository's golden test pins for the
// paper regeneration; paper-cold must reproduce it, traced or not.
const goldenDBSHA256 = "1f3557d092214eb2d3a85ac64bc33a7205037c32bf2d22349c264f4a454126df"

// A workload is one set of generated inputs driven through the same
// session: set up, evaluate cold, re-evaluate warm from the unit cache,
// publish and query the store, calibrate, and compare with the paper.
// Each workload feeds the session so that a different layer dominates;
// why says which, and BENCHMARK.json repeats it.
type workload struct {
	name string
	why  string
	plan func(seed int64, small bool) (*plan, error)
}

var workloads = []workload{
	{
		name: "paper-cold",
		why:  "the paper regeneration users run and the golden hash pins: 15 Table-1 machines x 14 groups, serial; simmem does ~90% of the work",
		plan: planPaperCold,
	},
	{
		name: "catalog-fleet",
		why:  "208 latency units on 26 catalog machines through a 2-worker fleet with cache and journal, then store queries; simulated work is ~1% of it",
		plan: planCatalogFleet,
	},
	{
		name: "calibrate-fit",
		why:  "three cross-profile calibrate fits of ~70 short adaptive suite runs, each on a freshly built candidate; the only calibrate and planner load",
		plan: planCalibrateFit,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// plan is a workload's generated input. The seed only reorders it —
// machines, fits, the store queries — so every seed does the same work
// and every output check holds.
type plan struct {
	name string
	// profiles are the evaluated machines in the seed's order; empty for
	// calibrate-fit, which evaluates its fitted profiles.
	profiles []machines.Profile
	catalog  *machines.Catalog
	// only restricts evaluation to these experiment IDs; nil runs all.
	only         map[string]bool
	opts         core.Options
	fleetWorkers int
	// goldenHash pins the cold database; without it every cold pass must
	// repeat the first one.
	goldenHash string
	// pairs are calibrate-fit's fits. The other workloads instead refit
	// canaryBase to their own run's canaryTarget numbers.
	pairs     []fitPair
	fitParams []string
	// warmReps, publishReps and fitReps size a round's batches of warm
	// passes, publishes and canary refits, each a tenth of a second or
	// so, and rounds is how many rounds follow each long step.
	// overheadReps is how often the traced run evaluates in process both
	// ways. iterSeconds is an evaluation's nominal length: --seconds
	// divided by it fixes the evaluation count, so a run's work does not
	// depend on how fast the host happens to be.
	warmReps, publishReps, fitReps, rounds, overheadReps int
	iterSeconds                                          float64
}

type fitPair struct{ base, target machines.Profile }

const (
	canaryBase   = "Linux/i586"
	canaryTarget = "Linux/i686"
)

// latencyIDs are the eight latency groups: Tables 7-9 and 11-17.
var latencyIDs = []string{"table7", "table8", "table9", "table11", "table12", "table13", "table14", "table15", "table16", "table17"}

// fitIDs are the experiments whose benchmarks calibrate fits.
var fitIDs = []string{"table2", "table6", "table7", "table8", "table9", "table10", "table12", "table13", "table15", "table16", "table17"}

// canaryParams are the latency parameters of the canary refit.
var canaryParams = []string{
	"syscall_us", "sig_install_us", "sig_catch_us", "fork_ms", "fork_exec_ms", "fork_sh_ms",
	"tcp_lat_us", "rpc_tcp_us", "udp_lat_us", "rpc_udp_us", "connect_us",
	"fs_create_us", "fs_delete_us", "disk_overhead_us",
}

func planPaperCold(seed int64, small bool) (*plan, error) {
	names := machines.Names()
	if small {
		names = []string{canaryTarget, canaryBase, "HP K210"}
	}
	cat := machines.Default()
	profiles, err := profilesIn(cat, shuffled(seed, names))
	if err != nil {
		return nil, err
	}
	p := &plan{
		name: "paper-cold", profiles: profiles, catalog: cat, opts: goldenOpts(), fitParams: canaryParams,
		warmReps: 12, publishReps: 16, fitReps: 16, rounds: 2, overheadReps: 1, iterSeconds: 30,
	}
	if !small {
		p.goldenHash = goldenDBSHA256
	}
	return p, nil
}

func planCatalogFleet(seed int64, small bool) (*plan, error) {
	cat := machines.Default()
	names := cat.Names()
	if small {
		names = []string{canaryTarget, "HP K210", "Linux/i586"}
	}
	profiles, err := profilesIn(cat, shuffled(seed, names))
	if err != nil {
		return nil, err
	}
	return &plan{
		name: "catalog-fleet", profiles: profiles, catalog: cat, only: idSet(latencyIDs),
		opts: goldenOpts(), fleetWorkers: parallelism(), fitParams: canaryParams,
		warmReps: 5, publishReps: 24, fitReps: 16, rounds: 1, overheadReps: 10, iterSeconds: 5.4,
	}, nil
}

func planCalibrateFit(seed int64, small bool) (*plan, error) {
	cat := machines.Default()
	defs := [][2]string{{"Linux/i586", "Linux/i686"}, {"Sun Ultra1", "SGI Indigo2"}, {"HP K210", "IBM Power2"}}
	p := &plan{
		name: "calibrate-fit", catalog: cat, only: idSet(fitIDs),
		warmReps: 64, publishReps: 32, rounds: 1, overheadReps: 6, iterSeconds: 8,
	}
	if small {
		p.fitParams = []string{"syscall_us", "sig_install_us", "fs_create_us"}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(defs), func(i, j int) { defs[i], defs[j] = defs[j], defs[i] })
	var chase int64
	for _, d := range defs {
		base, ok := cat.ByName(d[0])
		target, ok2 := cat.ByName(d[1])
		if !ok || !ok2 {
			return nil, fmt.Errorf("no profile for fit %s -> %s", d[0], d[1])
		}
		p.pairs = append(p.pairs, fitPair{base: base, target: target})
		chase = max(chase, chaseNeed(base), chaseNeed(target))
	}
	p.opts = fitterOpts(chase)
	return p, nil
}

// goldenOpts are cmd/lmreport's defaults, the recipe behind the golden
// hash.
func goldenOpts() core.Options {
	return core.Options{
		Timing:       timing.Options{MinSampleTime: ptime.Millisecond, Samples: 2},
		MemSize:      8 << 20,
		FileSize:     8 << 20,
		MaxChaseSize: 8 << 20,
		FSFiles:      500,
		CtxProcs:     []int{2, 4, 8, 12, 16, 20},
		CtxSizes:     []int64{0, 4 << 10, 16 << 10, 32 << 10, 64 << 10},
	}
}

// fitterOpts are calibrate's fast candidate options with the chase
// sweep grown to chase bytes, the rule calibrate applies before a
// Table-6 measurement so the extraction sees memory.
func fitterOpts(chase int64) core.Options {
	o := core.Options{
		Timing:       timing.Options{MinSampleTime: ptime.Millisecond, Samples: 3},
		MemSize:      2 << 20,
		FileSize:     2 << 20,
		MaxChaseSize: 2 << 20,
		FSFiles:      200,
		CtxProcs:     []int{2, 8, 16},
		CtxSizes:     []int64{0, 16 << 10, 32 << 10},
		SweepMode:    core.SweepAdaptive,
	}
	o.MaxChaseSize = max(o.MaxChaseSize, chase)
	o.MemSize = max(o.MemSize, o.MaxChaseSize)
	return o
}

// chaseNeed is calibrate's Table-6 sweep bound for p: four times its
// total cache.
func chaseNeed(p machines.Profile) int64 {
	var total int64
	for _, c := range p.Caches {
		total += c.Size
	}
	return 4 * total
}

func shuffled(seed int64, names []string) []string {
	out := append([]string(nil), names...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func profilesIn(cat *machines.Catalog, names []string) ([]machines.Profile, error) {
	out := make([]machines.Profile, len(names))
	for i, n := range names {
		p, ok := cat.ByName(n)
		if !ok {
			return nil, fmt.Errorf("no profile named %q", n)
		}
		out[i] = p
	}
	return out, nil
}

func idSet(ids []string) map[string]bool {
	m := make(map[string]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// parallelism caps fleet workers, fitter goroutines and HTTP clients
// at two, and at the CPU count on smaller hosts.
func parallelism() int { return min(2, runtime.NumCPU()) }
