package lmbench_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	lmbench "repro"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/ptime"
	"repro/internal/report"
	"repro/internal/results"
	"repro/internal/timing"
)

// goldenDBSHA256 pins the byte-identical-results contract: the full
// suite on every simulated machine, encoded with the standard lmreport
// options, must hash to exactly this value. Every performance
// optimization in the simulator (O(1) cache probes, batched clock
// charging, page-granular TLB probing, sharded sweeps, steady-state
// pass skipping) is argued — and here verified — to change nothing
// observable. Regenerate only for a
// deliberate modeling change:
//
//	go run ./cmd/lmreport -quiet -out results/simulated.db
//	sha256sum results/simulated.db
//
// History: the hash changed once for a deliberate format change — the
// results store's content addressing fixed Encode's entry order to the
// canonical (benchmark, machine) sort; the old insertion-ordered file
// decoded and re-encoded lands exactly on the new hash, so every
// measured value is bit-identical to the PR-3 pin (53fd7a0d…).
const goldenDBSHA256 = "1f3557d092214eb2d3a85ac64bc33a7205037c32bf2d22349c264f4a454126df"

// goldenOpts are cmd/lmreport's default options — the recipe behind
// results/simulated.db.
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

// TestMain lets this test binary serve as its own fleet worker and
// fork child: the fleet golden tests spawn re-executions of it.
func TestMain(m *testing.M) {
	lmbench.MaybeChild()
	os.Exit(m.Run())
}

func goldenHash(t *testing.T, db *results.DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func checkGolden(t *testing.T, db *results.DB, config string) {
	t.Helper()
	if got := goldenHash(t, db); got != goldenDBSHA256 {
		t.Errorf("%s: database hash %s, want %s", config, got, goldenDBSHA256)
	}
}

// sinkFunc adapts a function to lmbench.EventSink.
type sinkFunc func(lmbench.Event)

func (f sinkFunc) Event(e lmbench.Event) { f(e) }

// TestGoldenDatabaseByteIdentical regenerates the entire evaluation
// in-process through lmbench.New(...).Run — the path cmd/lmreport
// takes, one executor run over all 15 compiled machines — and compares
// the encoded database hash against the pinned golden value. It takes
// ~8s of real time on a 2-vCPU Xeon VM, so -short skips it; at the
// default GOMAXPROCS units of neighbouring machines overlap, and
// `make golden-serial` pins GOMAXPROCS=1.
//
// The run executes with the full observability stack attached —
// metrics, per-sample span tracing, and live progress — which doubles
// this test as the out-of-band proof: a run that is watched hashes the
// same as one that is not.
func TestGoldenDatabaseByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite regeneration is slow; skipped with -short")
	}
	reg := lmbench.NewRegistry()
	progress := obs.NewProgress()
	tracer := obs.NewTraceSink(io.Discard).WithSamples()
	options := []lmbench.Option{
		lmbench.WithOptions(goldenOpts()), lmbench.WithMetrics(reg),
		lmbench.WithSink(tracer), lmbench.WithSink(progress),
	}
	for _, n := range machines.Names() {
		m, err := lmbench.NewSimMachine(n)
		if err != nil {
			t.Fatal(err)
		}
		options = append(options, lmbench.WithMachine(m))
	}
	rep, err := lmbench.New(options...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	db := rep.DB
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenDBSHA256 {
		t.Errorf("regenerated database hash %s, want %s\n"+
			"the simulator's observable behavior changed; if intentional, refresh results/ and this hash",
			got, goldenDBSHA256)
	}
	checkRendered(t, db)

	// The observers must actually have observed the run, or the
	// byte-identity above proves nothing.
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lmbench_experiments_finished_total",
		"lmbench_harness_batches_total",
		"lmbench_harness_benchloops_total",
		"lmbench_sim_",
		"lmbench_sim_passes_skipped_total",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("metrics exposition after the golden run is missing %q", want)
		}
	}
	if tracer.Spans() == 0 {
		t.Error("trace sink recorded no spans during the golden run")
	}
	if snap := progress.Snapshot(); snap.Completed == 0 {
		t.Errorf("progress saw no completed experiments: %+v", snap)
	}
}

// checkRendered compares what cmd/lmreport renders from db with the
// committed artifacts (results/README.md): the tables, and every
// machine's Figure 1 and Figure 2 gnuplot data and SVG, so a change to
// the renderers that moves a byte shows here.
func checkRendered(t *testing.T, db *results.DB) {
	t.Helper()
	var tables bytes.Buffer
	if err := paper.RenderAll(&tables, db); err != nil {
		t.Fatal(err)
	}
	compare := func(path string, got []byte) {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s differs from what lmreport renders from the golden database", path)
		}
	}
	compare("results/tables.txt", tables.Bytes())
	dat, _ := filepath.Glob("results/figures/*.dat")
	svg, _ := filepath.Glob("results/figures-svg/*.svg")
	rendered := 0
	sanitize := strings.NewReplacer("/", "_", " ", "_", "@", "_") // as lmreport names the files
	for _, machine := range db.Machines() {
		for fig, plotOf := range []func(*results.DB, string) (*report.Plot, error){paper.Figure1Plot, paper.Figure2Plot} {
			plot, err := plotOf(db, machine)
			if err != nil {
				continue
			}
			name := fmt.Sprintf("fig%d_%s", fig+1, sanitize.Replace(machine))
			var gp, sv bytes.Buffer
			if err := plot.WriteGnuplot(&gp); err != nil {
				t.Fatal(err)
			}
			if err := plot.WriteSVG(&sv); err != nil {
				t.Fatal(err)
			}
			compare(filepath.Join("results/figures", name+".dat"), gp.Bytes())
			compare(filepath.Join("results/figures-svg", name+".svg"), sv.Bytes())
			rendered += 2
		}
	}
	if rendered != len(dat)+len(svg) {
		t.Errorf("rendered %d figure files, but results/ holds %d", rendered, len(dat)+len(svg))
	}
}
