package lmbench_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	lmbench "repro"
	"repro/internal/core"
	"repro/internal/results"
)

// The golden matrix pins byte identity across every way of producing
// the results database. Its cells form a pairwise covering array over
// five axes — executor, unit cache, resume, GOMAXPROCS and profile
// source — so every pair of axis values runs together in at least one
// cell. Each cell's database must equal results/simulated.db filtered
// to the cell's machines and experiment groups: a unit adds every
// entry of its group, so a run over a few machines and groups is
// checked as exactly as a full one, and only one cell regenerates the
// whole evaluation.

// goldenCell is one configuration of the matrix.
type goldenCell struct {
	workers int    // 0 runs in process; n > 0 runs a fleet of n workers
	cache   string // "" (no cache), "cold", "warm" or "mixed"
	// resume replays a journal that a run over the cell's first machine
	// wrote: a prefix of the cell's unit order.
	resume bool
	procs  int // GOMAXPROCS of every run of the cell and of its workers
	// file runs every machine from a profile file under a new name, so
	// a fleet ships it inline on the unit frame.
	file     bool
	machines []string // compiled profile names; nil runs all 15
	only     []string // experiment IDs; nil runs every group
	seed     []string // experiment IDs whose units seed a mixed cache
}

// goldenAxes lists each axis's values in the order axes() reports
// them. The values are distinct across axes.
var goldenAxes = [5][]string{
	{"in-process", "fleet-1", "fleet-2", "fleet-4"},
	{"no-cache", "cold", "warm", "mixed"},
	{"fresh", "resumed"},
	{"procs-1", "procs-2", "procs-4"},
	{"compiled", "file"},
}

func (c goldenCell) axes() [5]string {
	exec, cache, resume, profile := "in-process", "no-cache", "fresh", "compiled"
	if c.workers > 0 {
		exec = fmt.Sprintf("fleet-%d", c.workers)
	}
	if c.cache != "" {
		cache = c.cache
	}
	if c.resume {
		resume = "resumed"
	}
	if c.file {
		profile = "file"
	}
	return [5]string{exec, cache, resume, fmt.Sprintf("procs-%d", c.procs), profile}
}

// goldenCells is a pairwise covering array of the axes: the 16
// executor × cache pairs, with GOMAXPROCS and (resume, profile) laid
// over them as two orthogonal Latin squares. The machines and groups
// of each cell are picked to be cheap; the full evaluation runs once,
// on two workers, the cheapest fleet.
var goldenCells = []goldenCell{
	{workers: 0, procs: 1, machines: []string{"HP K210"}},
	{workers: 0, cache: "cold", procs: 2, file: true,
		machines: []string{"IBM Power2", "Sun Ultra1", "HP K210"}, only: []string{"table2", "table6", "table7"}},
	{workers: 0, cache: "warm", resume: true, procs: 4, file: true,
		machines: []string{"Linux/i586", "SGI Challenge"}, only: []string{"table9", "table10", "table12"}},
	{workers: 0, cache: "mixed", resume: true, procs: 2,
		machines: []string{"DEC Alpha@150", "Sun SC1000", "Unixware/i686"},
		only:     []string{"table3", "table7", "table8", "table16"}, seed: []string{"table7", "table16"}},

	{workers: 1, resume: true, procs: 2,
		machines: []string{"FreeBSD/i586", "Linux/Alpha"}, only: []string{"table4", "table9", "table15", "table17"}},
	{workers: 1, cache: "cold", resume: true, procs: 1, file: true,
		machines: []string{"IBM Power2", "SGI Indigo2"}, only: []string{"table5", "table11"}},
	{workers: 1, cache: "warm", procs: 2, file: true,
		machines: []string{"IBM Power2", "HP K210"}, only: []string{"table6", "table13"}},
	{workers: 1, cache: "mixed", procs: 4,
		machines: []string{"Sun Ultra1", "HP K210"},
		only:     []string{"table2", "table14", "table15"}, seed: []string{"table14", "table15"}},

	{workers: 2, procs: 4, file: true, machines: []string{"Linux/i586"}},
	{workers: 2, cache: "cold", procs: 2}, // the full evaluation
	{workers: 2, cache: "warm", resume: true, procs: 1,
		machines: []string{"Linux/i686", "IBM PowerPC", "SGI Indigo2"}, only: []string{"table7", "table8", "table15"}},
	{workers: 2, cache: "mixed", resume: true, procs: 2, file: true,
		machines: []string{"Linux/Alpha", "DEC Alpha@150", "Solaris/i686"},
		only:     []string{"table3", "table9", "table16", "table17"}, seed: []string{"table9", "table17"}},

	{workers: 4, resume: true, procs: 2, file: true,
		machines: []string{"IBM PowerPC", "Linux/i686", "SGI Challenge", "Unixware/i686"},
		only:     []string{"table7", "table12", "table14"}},
	{workers: 4, cache: "cold", resume: true, procs: 4,
		machines: []string{"DEC Alpha@150", "Linux/i586", "SGI Indigo2"}, only: []string{"table4", "table5", "table8", "table13"}},
	{workers: 4, cache: "warm", procs: 2,
		machines: []string{"FreeBSD/i586", "Solaris/i686"}, only: []string{"table2", "table11", "table16"}},
	{workers: 4, cache: "mixed", procs: 1, file: true,
		machines: []string{"Linux/Alpha", "IBM Power2"},
		only:     []string{"table6", "table7", "table9", "table14"}, seed: []string{"table7", "table9"}},
}

// TestGoldenMatrix runs every cell of goldenCells through lmbench.New,
// the path cmd/lmbench and cmd/lmreport take, and checks the cell's
// database bytes against the golden file, its unit-cache counters and
// its replayed units. It first checks that the table covers every pair
// of axis values and runs the full evaluation in some cell.
func TestGoldenMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the golden matrix regenerates the full evaluation; skipped with -short")
	}
	checkPairwise(t, goldenCells)
	oracle := loadGoldenOracle(t)
	for _, c := range goldenCells {
		axes := c.axes()
		t.Run(strings.Join(axes[:], ","), func(t *testing.T) { runGoldenCell(t, oracle, c) })
	}
}

// checkPairwise fails unless every pair of values of two different
// axes occurs together in some cell, and some cell runs every machine
// and every group.
func checkPairwise(t *testing.T, cells []goldenCell) {
	t.Helper()
	seen := map[[2]string]bool{}
	full := false
	for _, c := range cells {
		v := c.axes()
		for i := range v {
			for j := i + 1; j < len(v); j++ {
				seen[[2]string{v[i], v[j]}] = true
			}
		}
		full = full || (c.machines == nil && c.only == nil)
	}
	for i := range goldenAxes {
		for j := i + 1; j < len(goldenAxes); j++ {
			for _, a := range goldenAxes[i] {
				for _, b := range goldenAxes[j] {
					if !seen[[2]string{a, b}] {
						t.Errorf("no cell of the golden matrix runs %s with %s", a, b)
					}
				}
			}
		}
	}
	if !full {
		t.Error("no cell of the golden matrix runs the full evaluation")
	}
	if t.Failed() {
		t.FailNow()
	}
}

// goldenOracle is results/simulated.db with each benchmark's
// experiment group.
type goldenOracle struct {
	db    *results.DB
	group map[string]string // benchmark -> experiment group key
}

// loadGoldenOracle reads the golden file, checks its hash and that it
// re-encodes to itself, and assigns every benchmark to the one group
// whose experiments declare it.
func loadGoldenOracle(t *testing.T) *goldenOracle {
	t.Helper()
	raw, err := os.ReadFile("results/simulated.db")
	if err != nil {
		t.Fatal(err)
	}
	db, err := results.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenHash(t, db); got != goldenDBSHA256 {
		t.Fatalf("results/simulated.db encodes to hash %s, want %s", got, goldenDBSHA256)
	}
	if !bytes.Equal(encodeDB(t, db.Entries()), raw) {
		t.Fatal("results/simulated.db does not re-encode to its own bytes")
	}
	o := &goldenOracle{db: db, group: map[string]string{}}
	for _, bench := range db.Benchmarks() {
		var keys []string
		for _, g := range core.GroupExperiments(core.Experiments(), nil) {
			for _, id := range g.IDs {
				exp, _ := core.ExperimentByID(id)
				if declares(exp, bench) {
					keys = append(keys, g.Key)
					break
				}
			}
		}
		if len(keys) != 1 {
			t.Fatalf("benchmark %q belongs to groups %v, want exactly one", bench, keys)
		}
		o.group[bench] = keys[0]
	}
	return o
}

// declares reports whether exp produces bench (its Benchmarks are
// prefixes for per-medium families).
func declares(exp core.Experiment, bench string) bool {
	for _, p := range exp.Benchmarks {
		if strings.HasPrefix(bench, p) {
			return true
		}
	}
	return false
}

// want encodes the golden entries of these machines and groups.
func (o *goldenOracle) want(t *testing.T, machines []string, groups map[string]bool) []byte {
	t.Helper()
	in := map[string]bool{}
	for _, m := range machines {
		in[m] = true
	}
	var entries []results.Entry
	for _, e := range o.db.Entries() {
		if in[e.Machine] && groups[o.group[e.Benchmark]] {
			entries = append(entries, e)
		}
	}
	return encodeDB(t, entries)
}

// groupsOf returns the experiment groups the IDs select (nil selects
// every group).
func groupsOf(ids []string) []core.ExperimentGroup {
	var only map[string]bool
	if ids != nil {
		only = map[string]bool{}
		for _, id := range ids {
			only[id] = true
		}
	}
	return core.GroupExperiments(core.Experiments(), only)
}

func runGoldenCell(t *testing.T, o *goldenOracle, c goldenCell) {
	prev := runtime.GOMAXPROCS(c.procs)
	defer runtime.GOMAXPROCS(prev)
	t.Setenv("GOMAXPROCS", strconv.Itoa(c.procs)) // spawned workers inherit it

	dir := t.TempDir()
	names := c.machines
	if names == nil {
		names = lmbench.SimMachineNames()
	}
	// runs[i] is the name names[i] runs under; home maps it back.
	runs := append([]string(nil), names...)
	cat := lmbench.DefaultCatalog()
	var shared []lmbench.Option
	if c.file {
		profiles := filepath.Join(dir, "profiles")
		if err := os.Mkdir(profiles, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, n := range names {
			p, _ := cat.ByName(n)
			p.Name = n + " (file)"
			if err := lmbench.WriteProfileFile(filepath.Join(profiles, strconv.Itoa(i)+".json"), p); err != nil {
				t.Fatal(err)
			}
			runs[i] = p.Name
		}
		if err := cat.LoadPath(profiles); err != nil {
			t.Fatal(err)
		}
		shared = append(shared, lmbench.WithProfileFile(profiles))
	}
	home := map[string]string{}
	for i, n := range names {
		home[runs[i]] = n
	}
	// run executes the first k machines over the experiment IDs.
	run := func(k int, only []string, extra ...lmbench.Option) *lmbench.Report {
		t.Helper()
		opts := append([]lmbench.Option{lmbench.WithOptions(goldenOpts()), lmbench.WithOnly(only...)}, shared...)
		for _, n := range runs[:k] {
			m, err := lmbench.NewSimMachineIn(cat, n)
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, lmbench.WithMachine(m))
		}
		rep, err := lmbench.New(append(opts, extra...)...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Inputs, made in process: the cache a warm or mixed cell starts
	// from, and the journal a resumed cell replays.
	cacheDir, jnl := filepath.Join(dir, "cache"), filepath.Join(dir, "run.jnl")
	switch c.cache {
	case "warm":
		run(len(runs), c.only, lmbench.WithUnitCache(cacheDir))
	case "mixed":
		run(len(runs), c.seed, lmbench.WithUnitCache(cacheDir))
	}
	if c.resume {
		run(1, c.only, lmbench.WithJournal(jnl))
	}

	var mu sync.Mutex
	events := map[core.EventKind]int{}
	opts := []lmbench.Option{lmbench.WithSink(sinkFunc(func(e lmbench.Event) {
		mu.Lock()
		events[e.Kind]++
		mu.Unlock()
	}))}
	if c.workers > 0 {
		opts = append(opts, lmbench.WithFleet(c.workers))
	}
	if c.cache != "" {
		opts = append(opts, lmbench.WithUnitCache(cacheDir))
	}
	if c.resume {
		opts = append(opts, lmbench.WithJournal(jnl))
	}
	rep := run(len(runs), c.only, opts...)

	groups := map[string]bool{}
	for _, g := range groupsOf(c.only) {
		groups[g.Key] = true
	}
	var entries []results.Entry
	for _, e := range rep.DB.Entries() {
		e.Machine = home[e.Machine]
		entries = append(entries, e)
	}
	got, want := encodeDB(t, entries), o.want(t, names, groups)
	if !bytes.Equal(got, want) {
		t.Errorf("database differs from the golden entries of %d machine(s) × %d group(s): %s",
			len(names), len(groups), firstDiff(got, want))
	}

	// Unit accounting: the journaled machine's units replay and never
	// reach the cache; of the other machines' units, a warm cache
	// serves all and a mixed one the seeded groups'; every miss
	// executes and is stored.
	journaled := 0
	if c.resume {
		journaled = 1
	}
	cached := 0
	switch c.cache {
	case "warm":
		cached = len(groups)
	case "mixed":
		for _, g := range groupsOf(c.seed) {
			if groups[g.Key] {
				cached++
			}
		}
	}
	replayed, hits := journaled*len(groups), (len(names)-journaled)*cached
	misses := len(names)*len(groups) - replayed - hits
	if n := events[core.ExperimentReplayed]; n != replayed {
		t.Errorf("%d units replayed from the journal, want %d", n, replayed)
	}
	if n := events[core.ExperimentCached]; n != hits {
		t.Errorf("%d units announced as cached, want %d", n, hits)
	}
	switch {
	case c.cache == "" && rep.Cache != nil:
		t.Errorf("cache stats %s without a cache", rep.Cache)
	case c.cache != "" && rep.Cache == nil:
		t.Error("Report.Cache is nil")
	case c.cache != "" && (rep.Cache.Hits != int64(hits) || rep.Cache.Misses != int64(misses) || rep.Cache.Stored != int64(misses)):
		t.Errorf("cache stats %s, want hits=%d misses=stored=%d", rep.Cache, hits, misses)
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d is %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
