package calibrate

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
	"repro/internal/unitcache"
)

// fastOpts are the quick suite options both the target run and the
// fitter's candidate runs use.
func fastOpts() core.Options {
	return core.Options{
		Timing:       timing.Options{MinSampleTime: ptime.Millisecond, Samples: 3},
		MemSize:      2 << 20,
		FileSize:     2 << 20,
		MaxChaseSize: 2 << 20,
		FSFiles:      200,
		CtxProcs:     []int{2, 8, 16},
		CtxSizes:     []int64{0, 16 << 10, 32 << 10},
		SweepMode:    core.SweepAdaptive,
	}
}

// measureGroups runs the listed experiment groups on p and returns the
// database — the same path the fitter's candidates take.
func measureGroups(t *testing.T, p machines.Profile, groups ...string) *results.DB {
	t.Helper()
	m, err := machines.Build(p)
	if err != nil {
		t.Fatalf("Build(%s): %v", p.Name, err)
	}
	only := map[string]bool{}
	for _, g := range groups {
		only[g] = true
	}
	db := &results.DB{}
	suite := &core.Suite{M: m, Opts: fastOpts(), Only: only, MaxRSD: 0.05}
	if _, err := suite.Run(context.Background(), db); err != nil {
		t.Fatalf("suite run: %v", err)
	}
	return db
}

// TestCalibrateRecoversPerturbedProfile is the end-to-end convergence
// property: measure a pristine built-in, perturb several of its
// parameters, and prove the fitter walks them back within tolerance.
func TestCalibrateRecoversPerturbedProfile(t *testing.T) {
	pristine, ok := machines.ByName("Linux/i686")
	if !ok {
		t.Fatal("Linux/i686 not in compiled catalog")
	}
	db := measureGroups(t, pristine, "table7", "table8", "table10", "table16")
	target, err := FromDB(db, pristine.Name)
	if err != nil {
		t.Fatalf("FromDB: %v", err)
	}

	pert := clone(pristine)
	pert.SyscallUS *= 3
	pert.CtxSwitchUS *= 2.5
	pert.SigHandlerUS *= 2
	pert.FSCreateUS *= 0.4

	params := []string{"syscall_us", "ctx_us", "sig_catch_us", "fs_create_us"}
	res, err := Calibrate(context.Background(), pert, target, Options{
		Params: params,
		Run:    ptrOpts(fastOpts()),
		Budget: 200,
	})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if !res.Converged {
		t.Errorf("Calibrate did not converge: %+v", res.Params)
	}
	if len(res.Params) != len(params) {
		t.Fatalf("fitted %d params, want %d: %+v", len(res.Params), len(params), res.Params)
	}
	wantField := map[string]float64{
		"syscall_us":   pristine.SyscallUS,
		"ctx_us":       pristine.CtxSwitchUS,
		"sig_catch_us": pristine.SigHandlerUS,
		"fs_create_us": pristine.FSCreateUS,
	}
	for _, pr := range res.Params {
		if pr.Err != "" {
			t.Errorf("%s: hard failure: %s", pr.Param, pr.Err)
			continue
		}
		if !pr.Converged {
			t.Errorf("%s: not converged: measured %.4g target %.4g relerr %.3f tol %.3f",
				pr.Param, pr.Measured, pr.Target, pr.RelErr, pr.Tolerance)
		}
		want := wantField[pr.Param]
		if e := math.Abs(pr.Fitted-want) / want; e > pr.Tolerance {
			t.Errorf("%s: fitted %.4g, pristine %.4g (relerr %.3f > tol %.3f)",
				pr.Param, pr.Fitted, want, e, pr.Tolerance)
		}
	}
	// The fitted profile's own verification run must score within
	// tolerance on every fitted benchmark.
	if res.DB == nil || res.DB.Len() == 0 {
		t.Error("result carries no verification DB")
	}
	// Untouched parameters stay untouched.
	if res.Profile.ForkMS != pert.ForkMS || res.Profile.TCPLatUS != pert.TCPLatUS {
		t.Error("calibration modified parameters outside Options.Params")
	}
	if res.Profile.Name != pristine.Name {
		t.Errorf("fitted profile renamed to %q", res.Profile.Name)
	}
	if res.Evals <= 0 || res.Evals > 200 {
		t.Errorf("evals = %d, want within (0, budget]", res.Evals)
	}
}

// TestCalibrateEmitsEvents checks the event-stream contract: one
// started, one per-parameter, one finished.
func TestCalibrateEmitsEvents(t *testing.T) {
	pristine, _ := machines.ByName("Linux/i586")
	db := measureGroups(t, pristine, "table7")
	target, err := FromDB(db, pristine.Name)
	if err != nil {
		t.Fatalf("FromDB: %v", err)
	}
	pert := clone(pristine)
	pert.SyscallUS *= 2

	var events []core.Event
	sink := &captureSink{out: &events}
	res, err := Calibrate(context.Background(), pert, target, Options{
		Params: []string{"syscall_us"},
		Run:    ptrOpts(fastOpts()),
		Events: sink,
	})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res.Params)
	}
	var started, param, finished int
	for _, e := range events {
		switch e.Kind {
		case core.CalibrateStarted:
			started++
			if e.Machine != pristine.Name || e.Entries != 1 {
				t.Errorf("started event: %+v", e)
			}
		case core.CalibrateParam:
			param++
			if e.Experiment != "syscall_us" || e.Title != "lat_syscall" {
				t.Errorf("param event: %+v", e)
			}
		case core.CalibrateFinished:
			finished++
			if e.Entries != 1 || e.Attempt != res.Evals || e.Err != "" {
				t.Errorf("finished event: %+v (evals %d)", e, res.Evals)
			}
		}
	}
	if started != 1 || param < 1 || finished != 1 {
		t.Errorf("event counts: started %d param %d finished %d", started, param, finished)
	}
}

// TestCalibrateErrors covers the argument contract.
func TestCalibrateErrors(t *testing.T) {
	pristine, _ := machines.ByName("Linux/i686")
	ctx := context.Background()
	if _, err := Calibrate(ctx, machines.Profile{}, Target{Values: map[string]float64{"lat_syscall": 1}}, Options{}); err == nil {
		t.Error("nameless base accepted")
	}
	if _, err := Calibrate(ctx, pristine, Target{}, Options{}); err == nil {
		t.Error("empty target accepted")
	}
	if _, err := Calibrate(ctx, pristine, Target{Values: map[string]float64{"nonexistent_bench": 1}}, Options{}); err == nil {
		t.Error("target with no fittable parameters accepted")
	}
	if _, err := Calibrate(ctx, pristine,
		Target{Values: map[string]float64{"lat_syscall": 1}},
		Options{Params: []string{"fs_create_us"}}); err == nil {
		t.Error("Params restriction excluding every target accepted")
	}
}

// TestCandidateCacheKeyCoversQualityGate: candidate runs stamp
// quality.* attrs under the fitter's gate, so their cached units must
// key on MaxRSD — a run with another gate (or none) may never be
// served them.
func TestCandidateCacheKeyCoversQualityGate(t *testing.T) {
	dir := t.TempDir()
	p, _ := machines.ByName("Linux/i686")
	open := func(maxRSD float64) *unitcache.Cache {
		t.Helper()
		f := &fitter{opts: Options{CacheDir: dir, MaxRSD: maxRSD}}
		c, err := f.openCache(p, f.runOpts(p, "table7"))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rec := core.JournalRecord{Machine: p.Name, Key: "table7", Entries: []results.Entry{
		{Benchmark: "lat_syscall", Machine: p.Name, Unit: "microseconds", Scalar: 2},
	}}
	if err := open(0.05).Store(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := open(0.05).Lookup(p.Name, "table7"); !ok {
		t.Fatal("the same gate must hit")
	}
	for _, rsd := range []float64{0, 0.1} {
		if _, ok := open(rsd).Lookup(p.Name, "table7"); ok {
			t.Errorf("MaxRSD %v was served a unit stored under 0.05", rsd)
		}
	}
}

// TestCalibrateUnusableCacheDir: a cache directory that cannot be
// opened fails the fit instead of silently running uncached.
func TestCalibrateUnusableCacheDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	p, _ := machines.ByName("Linux/i686")
	target := Target{Values: map[string]float64{"lat_syscall": p.SyscallUS}}
	if _, err := Calibrate(context.Background(), p, target, Options{CacheDir: file}); err == nil {
		t.Error("a file as the cache directory was accepted")
	}
}

// TestTargetFromDB checks scalar extraction and spread parsing.
func TestTargetFromDB(t *testing.T) {
	db := &results.DB{}
	add := func(e results.Entry) {
		t.Helper()
		if err := db.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	add(results.Entry{Benchmark: "lat_syscall", Machine: "m", Unit: "us", Scalar: 4,
		Attrs: map[string]string{"quality.spread": "0.02"}})
	add(results.Entry{Benchmark: "lat_tcp", Machine: "m", Unit: "us", Scalar: 300})
	add(results.Entry{Benchmark: "lat_syscall", Machine: "other", Unit: "us", Scalar: 9})

	tgt, err := FromDB(db, "m")
	if err != nil {
		t.Fatal(err)
	}
	if len(tgt.Values) != 2 || tgt.Values["lat_syscall"] != 4 || tgt.Values["lat_tcp"] != 300 {
		t.Errorf("values: %+v", tgt.Values)
	}
	if tgt.Spread["lat_syscall"] != 0.02 {
		t.Errorf("spread: %+v", tgt.Spread)
	}
	if got := tgt.Benchmarks(); len(got) != 2 || got[0] != "lat_syscall" || got[1] != "lat_tcp" {
		t.Errorf("Benchmarks() = %v", got)
	}
	if _, err := FromDB(db, "absent"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func ptrOpts(o core.Options) *core.Options { return &o }

type captureSink struct{ out *[]core.Event }

func (c *captureSink) Event(e core.Event) { *c.out = append(*c.out, e) }
