package lmbench

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// countSink counts the events it sees.
type countSink struct{ n atomic.Int64 }

func (c *countSink) Event(Event) { c.n.Add(1) }

// TestConfigErrorsRefuseBeforeRunning: every configuration the library
// cannot execute is refused by Run with a *ConfigError before anything
// runs — no event, no cache directory, no worker.
func TestConfigErrorsRefuseBeforeRunning(t *testing.T) {
	sim := func() Machine {
		m, err := NewSimMachine("Linux/i686")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	chaotic := func() Machine { return faults.Wrap(sim(), faults.Plan{Seed: 1, ErrorRate: 0.3}) }
	host, err := NewHostMachine()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = host.Close() }()
	target := CalibrationTarget{Values: map[string]float64{"lat_syscall": 2}}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	calibrate := func(o ...Option) []Option {
		return append([]Option{WithMachine(sim()), WithCalibrateTarget(target)}, o...)
	}

	cases := []struct {
		name    string
		options []Option
		want    string
	}{
		{"chaos x fleet", []Option{WithMachine(chaotic()), WithFleet(2)}, "does not compose with fleet execution"},
		{"chaos x unit cache", []Option{WithMachine(chaotic()), WithUnitCache(cacheDir)}, "does not compose with the unit cache"},
		{"chaos x adaptive", []Option{WithMachine(chaotic()), WithSweepMode(SweepAdaptive)}, "does not compose with adaptive sweeps"},
		{"unknown experiment", []Option{WithMachine(sim()), WithOnly("table7", "tabel7")}, `unknown experiment "tabel7"`},
		// A negative fleet size is no fleet: refused, not run in process
		// (where chaos would compose), and refused as such by a
		// calibration too.
		{"negative fleet", []Option{WithMachine(sim()), WithOnly("table7"), WithFleet(-1)}, "WithFleet: negative worker count -1"},
		{"negative fleet x chaos", []Option{WithMachine(chaotic()), WithOnly("table7"), WithFleet(-2)}, "WithFleet: negative worker count -2"},
		{"calibrate x negative fleet", calibrate(WithFleet(-1)), "WithFleet: negative worker count -1"},
		{"calibrate host", []Option{WithMachine(host), WithCalibrateTarget(target)}, "requires a simulated machine"},
		{"calibrate two machines", []Option{WithMachine(sim()), WithMachine(sim()), WithCalibrateTarget(target)}, "exactly one machine"},
		// A calibration refuses every option its candidate runs ignore.
		{"calibrate x read-only cache", calibrate(WithUnitCache(cacheDir), WithUnitCacheReadOnly()), "does not compose with WithUnitCacheReadOnly"},
		{"calibrate x cache limit", calibrate(WithUnitCache(cacheDir), WithUnitCacheLimit(1<<20)), "does not compose with WithUnitCacheLimit"},
		{"calibrate x fleet", calibrate(WithFleet(2)), "does not compose with WithFleet"},
		{"calibrate x fleet connect", calibrate(WithFleetConnect("127.0.0.1:1")), "does not compose with WithFleetConnect"},
		{"calibrate x journal", calibrate(WithJournal(filepath.Join(dir, "cal.jnl"))), "does not compose with WithJournal"},
		{"calibrate x store", calibrate(WithStore(filepath.Join(dir, "store"))), "does not compose with WithStore"},
		{"calibrate x publish", calibrate(WithPublish("127.0.0.1:1")), "does not compose with WithPublish"},
		{"calibrate x only", calibrate(WithOnly("table7")), "does not compose with WithOnly"},
		{"calibrate x extended", calibrate(WithExtended()), "does not compose with WithExtended"},
		{"calibrate x timeout", calibrate(WithTimeout(time.Minute)), "does not compose with WithTimeout"},
		{"calibrate x retries", calibrate(WithRetries(1)), "does not compose with WithRetries"},
		{"calibrate x quality retries", calibrate(WithMaxRSD(0.05, 3)), "does not compose with WithMaxRSD's retries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &countSink{}
			rep, err := New(append(tc.options, WithOptions(exampleOpts()), WithSink(sink))...).Run(context.Background())
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v (report %v), want a *ConfigError", err, rep)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want it to mention %q", err, tc.want)
			}
			if n := sink.n.Load(); n != 0 {
				t.Errorf("%d events emitted before the refusal", n)
			}
		})
	}
	for _, left := range []string{"cache", "cal.jnl", "store"} {
		if _, err := os.Stat(filepath.Join(dir, left)); !os.IsNotExist(err) {
			t.Errorf("a refused run left %s behind (%v)", left, err)
		}
	}

	// cmd/lmbench passes every option on every run, zero when its flag
	// is unset; zero values must still compose with a calibration.
	zero := New(calibrate(WithOptions(exampleOpts()), WithUnitCache(cacheDir), WithUnitCacheLimit(0),
		WithFleet(0), WithFleetConnect(), WithPublish(""), WithPublishRetries(0), WithRunLabel(""),
		WithTimeout(0), WithRetries(0), WithMaxRSD(0.05, 0))...)
	if err := zero.Validate(); err != nil {
		t.Errorf("zero-valued options refused with a calibration: %v", err)
	}
}

// TestWithMetricsWiresEveryPart: WithMetrics registers the suite's
// families at New (so a server started before Run exposes them), and
// Run adds the families of the journal and the unit cache it wires;
// a Progress sink learns each machine's plan.
func TestWithMetricsWiresEveryPart(t *testing.T) {
	m, err := NewSimMachine("Linux/i686")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reg, progress := NewRegistry(), NewProgress()
	b := New(WithMachine(m), WithOptions(exampleOpts()), WithOnly("table7", "table8"),
		WithMetrics(reg), WithSink(progress),
		WithJournal(filepath.Join(dir, "run.jnl")), WithUnitCache(filepath.Join(dir, "cache")))
	scrape := func() string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if !strings.Contains(scrape(), "lmbench_harness_benchloops_total") {
		t.Error("harness counters not registered before Run")
	}
	if _, err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := scrape()
	for _, family := range []string{
		"lmbench_experiments_finished_total", "lmbench_journal_bytes_total", "lmbench_unit_cache_misses_total",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("metrics lack %s", family)
		}
	}
	snap := progress.Snapshot()
	if len(snap.Machines) != 1 || snap.Machines[0].Planned != 2 || snap.Machines[0].Done != 2 {
		t.Errorf("progress = %+v, want 2 planned and done", snap.Machines)
	}
}

// TestMetricsCountTheirOwnRun: a registry counts the run it is wired
// to and no other. Three identical adaptive runs, each with a fresh
// registry — two in process, then one on a 2-worker fleet — read the
// same planner counts, and those are the sweep.points_* attrs of the
// run's own database. The harness families count in-process attempts
// only: probes never cross a process boundary.
func TestMetricsCountTheirOwnRun(t *testing.T) {
	// value reads one unlabeled series from the exposition ("" when
	// the family is absent).
	value := func(reg *Registry, family string) string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, family+" "); ok {
				return v
			}
		}
		return ""
	}
	var first [2]string
	for i, workers := range []int{0, 0, 2} {
		m, err := NewSimMachine("Linux/i686")
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		rep, err := New(WithMachine(m), WithOptions(core.FastOptions()), WithOnly("figure1", "table7"),
			WithSweepMode(SweepAdaptive), WithMetrics(reg), WithFleet(workers)).Run(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		var measured, synthetic int
		for _, e := range rep.DB.Entries() {
			n, _ := strconv.Atoi(e.Attrs["sweep.points_measured"])
			k, _ := strconv.Atoi(e.Attrs["sweep.points_synthetic"])
			measured, synthetic = measured+n, synthetic+k
		}
		if measured == 0 {
			t.Fatalf("run %d measured no sweep points", i+1)
		}
		got := [2]string{value(reg, "lmbench_sweep_points_measured_total"), value(reg, "lmbench_sweep_points_skipped_total")}
		if want := [2]string{strconv.Itoa(measured), strconv.Itoa(synthetic)}; got != want {
			t.Errorf("run %d: registry reads measured/skipped %v, its database %v", i+1, got, want)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("run %d: registry reads measured/skipped %v, run 1 read %v", i+1, got, first)
		}
		wantLoops := "1"
		if workers > 0 {
			wantLoops = "0"
		}
		if got := value(reg, "lmbench_harness_benchloops_total"); got != wantLoops {
			t.Errorf("run %d (fleet %d): lmbench_harness_benchloops_total %q, want %s", i+1, workers, got, wantLoops)
		}
	}
}
