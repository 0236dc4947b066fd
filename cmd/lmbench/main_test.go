package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	lmbench "repro"
	"repro/internal/core"
	"repro/internal/results"
)

// TestRejectedCombinations: every flag combination that cannot run is
// refused before anything runs — no output database, no journal, no
// cache directory, no progress line. Combinations the library refuses
// surface its typed *lmbench.ConfigError.
func TestRejectedCombinations(t *testing.T) {
	dir := t.TempDir()
	// A results file holding a host measurement is a valid calibration
	// target, so the host-as-base refusal comes from the builder.
	hostDB := filepath.Join(dir, "host.db")
	db := &results.DB{}
	if err := db.Add(results.Entry{Benchmark: "lat_syscall", Machine: "host", Unit: "microseconds", Scalar: 0.3}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hostDB, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// The -journal, -trace and -spans files a refused run names must
	// keep their bytes.
	kept, keptTrace, keptSpans := filepath.Join(dir, "kept.jnl"), filepath.Join(dir, "kept.trace"), filepath.Join(dir, "kept.spans")
	for _, path := range []string{kept, keptTrace, keptSpans} {
		if err := os.WriteFile(path, []byte("from an earlier run: "+path+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	out := filepath.Join(dir, "out.db")
	sim := []string{"-machine", "Linux/i686", "-fast", "-out", out}
	cases := []struct {
		name   string
		args   []string
		want   string
		config bool // a *lmbench.ConfigError from the builder
	}{
		{"chaos x fleet", append(sim, "-only", "table7", "-chaos", "seed=1,err=0.3", "-fleet-workers", "2"),
			"does not compose with fleet execution", true},
		{"chaos x unit cache", append(sim, "-only", "table7", "-chaos", "seed=1,err=0.3", "-unit-cache", filepath.Join(dir, "cache")),
			"does not compose with the unit cache", true},
		{"chaos x adaptive", append(sim, "-only", "figure1", "-chaos", "seed=1,err=0.3", "-sweep", "adaptive"),
			"does not compose with adaptive sweeps", true},
		{"journal x resume", append(sim, "-only", "table7", "-journal", filepath.Join(dir, "a.jnl"), "-resume", filepath.Join(dir, "b.jnl")),
			"mutually exclusive", false},
		{"unknown experiment", append(sim, "-only", "table7,tabel7"),
			`unknown experiment "tabel7"`, true},
		{"calibrate host", []string{"-calibrate", "-machine", "host", "-target", hostDB, "-emit", out},
			"requires a simulated machine", true},
		{"calibrate x read-only cache", []string{"-calibrate", "-machine", "Linux/i686", "-target", "paper", "-emit", out,
			"-unit-cache", filepath.Join(dir, "cache"), "-unit-cache-readonly"},
			"does not compose with WithUnitCacheReadOnly", true},
		{"calibrate x journal", []string{"-calibrate", "-machine", "Linux/i686", "-target", "paper", "-emit", out, "-journal", kept},
			"does not compose with WithJournal", true},
		{"chaos x fleet x journal", append(sim, "-only", "table7", "-chaos", "seed=1,err=0.3", "-fleet-workers", "2",
			"-journal", kept, "-trace", keptTrace, "-spans", keptSpans),
			"does not compose with fleet execution", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
			var ce *lmbench.ConfigError
			if got := errors.As(err, &ce); got != tc.config {
				t.Errorf("errors.As(*ConfigError) = %v, want %v (err %v)", got, tc.config, err)
			}
			if strings.Contains(stderr.String(), "running ") || stdout.Len() > 0 {
				t.Errorf("the run started:\nstdout %q\nstderr %q", stdout.String(), stderr.String())
			}
		})
	}
	for _, left := range []string{"out.db", "cache", "a.jnl", "b.jnl"} {
		if _, err := os.Stat(filepath.Join(dir, left)); !os.IsNotExist(err) {
			t.Errorf("a refused run left %s behind (%v)", left, err)
		}
	}
	for _, path := range []string{kept, keptTrace, keptSpans} {
		want := "from an earlier run: " + path + "\n"
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("a refused run rewrote %s: %q (%v), want %q", filepath.Base(path), got, err, want)
		}
	}
}

// TestResumeRefusesOtherOptions: a journal written under -fast cannot
// resume a full-size run — its records would fill the database with
// -fast bytes filed under the full-size options fingerprint — while a
// resume under the options that wrote it replays.
func TestResumeRefusesOtherOptions(t *testing.T) {
	dir := t.TempDir()
	jnl, out := filepath.Join(dir, "j.jnl"), filepath.Join(dir, "b.db")
	table2 := []string{"-machine", "Linux/i686", "-only", "table2", "-quiet"}
	var stdout, stderr bytes.Buffer
	if err := run(append(table2, "-fast", "-journal", jnl), &stdout, &stderr); err != nil {
		t.Fatalf("journaled -fast run: %v\n%s", err, stderr.String())
	}
	err := run(append(table2, "-resume", jnl, "-out", out), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "written under other run options") {
		t.Fatalf("full-size resume of a -fast journal: err = %v, want it refused", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("the refused resume wrote %s (%v)", filepath.Base(out), err)
	}
	if err := run(append(table2, "-fast", "-resume", jnl, "-out", out), &stdout, &stderr); err != nil {
		t.Fatalf("-fast resume of a -fast journal: %v", err)
	}
}

// TestCalibrationHonoursSweep: a calibration's candidate runs use the
// sweep mode set with -sweep, and adaptive sweeps when none is set.
// The mode is part of every unit-cache key, so exhaustive candidates
// write other fragments than adaptive ones, and a calibration without
// -sweep writes the adaptive fragments.
func TestCalibrationHonoursSweep(t *testing.T) {
	dir := t.TempDir()
	fragments := map[string][]string{}
	for _, mode := range []string{"exhaustive", "adaptive", ""} {
		cache := filepath.Join(dir, "cache-"+mode)
		args := []string{"-calibrate", "-machine", "Linux/i686", "-target", "paper", "-quiet",
			"-emit", filepath.Join(dir, "fit.json"), "-unit-cache", cache}
		if mode != "" {
			args = append(args, "-sweep", mode)
		}
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("-sweep %q: %v\n%s", mode, err, stderr.String())
		}
		err := filepath.WalkDir(cache, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				fragments[mode] = append(fragments[mode], strings.TrimPrefix(path, cache))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	same := func(a, b []string) bool { return strings.Join(a, "\n") == strings.Join(b, "\n") }
	if len(fragments["adaptive"]) == 0 {
		t.Fatal("an adaptive calibration wrote no fragments")
	}
	if same(fragments["exhaustive"], fragments["adaptive"]) {
		t.Errorf("-sweep exhaustive and -sweep adaptive wrote the same %d fragments", len(fragments["adaptive"]))
	}
	if !same(fragments[""], fragments["adaptive"]) {
		t.Errorf("a calibration without -sweep wrote %v, -sweep adaptive %v", fragments[""], fragments["adaptive"])
	}
}

// TestFlagsTranslateToBuilder: a CLI run writes exactly the bytes the
// equivalent lmbench.New composition produces.
func TestFlagsTranslateToBuilder(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cli.db")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-machine", "Linux/i686", "-fast", "-only", "table7", "-quiet", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	m, err := lmbench.NewSimMachine("Linux/i686")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lmbench.New(lmbench.WithMachine(m), lmbench.WithOptions(core.FastOptions()), lmbench.WithOnly("table7")).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rep.DB.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("CLI database differs from the builder's:\n--- cli\n%s\n--- builder\n%s", got, want.Bytes())
	}
	if !strings.Contains(stdout.String(), "Table 7") {
		t.Errorf("stdout lacks the Table 7 rendering:\n%s", stdout.String())
	}
}

// TestMergePersistsOnlyTheRun: -merge preloads join the rendered and
// written output, while -store persists only the run's own entries
// under a manifest naming the run's machines.
func TestMergePersistsOnlyTheRun(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.db")
	db := &results.DB{}
	if err := db.Add(results.Entry{Benchmark: "lat_syscall", Machine: "Elsewhere", Unit: "microseconds", Scalar: 9}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, storeDir := filepath.Join(dir, "out.db"), filepath.Join(dir, "store")
	var stdout, stderr bytes.Buffer
	args := []string{"-machine", "Linux/i686", "-fast", "-only", "table7", "-quiet",
		"-merge", old, "-store", storeDir, "-out", out}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	written, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(written, []byte(`"Elsewhere"`)) {
		t.Error("-out lost the merged entry")
	}
	s, err := lmbench.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	m, stored, err := s.DB("latest")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stored.Get("lat_syscall", "Elsewhere"); ok {
		t.Error("the stored run carries a preloaded -merge entry")
	}
	if _, ok := stored.Get("lat_syscall", "Linux/i686"); !ok || len(m.Machines) != 1 {
		t.Errorf("the stored run lacks its own entry or names %v", m.Machines)
	}
}

// TestRunIDIgnoresGOMAXPROCS: byte-identical runs share one run ID
// whatever width they ran at. The same Figure-1 run is stored through
// the CLI and through lmbench.New at GOMAXPROCS 1 and 2, and the store
// ends up holding one run.
func TestRunIDIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	storeDir := filepath.Join(t.TempDir(), "store")
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var stdout, stderr bytes.Buffer
		args := []string{"-machine", "Linux/i686", "-fast", "-only", "figure1", "-quiet", "-store", storeDir}
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v\n%s", procs, err, stderr.String())
		}
		m, err := lmbench.NewSimMachine("Linux/i686")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lmbench.New(lmbench.WithMachine(m), lmbench.WithOptions(core.FastOptions()),
			lmbench.WithOnly("figure1"), lmbench.WithStore(storeDir)).Run(context.Background()); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
	}
	s, err := lmbench.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		ids := make([]string, len(runs))
		for i, r := range runs {
			ids[i] = r.RunID
		}
		t.Errorf("store holds %d runs %v, want the one run", len(runs), ids)
	}
}
