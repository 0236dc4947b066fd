package calibrate

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
	"repro/internal/simmem"
	"repro/internal/simnet"
	"repro/internal/unitcache"
)

// tolerance is the default relative-error stopping threshold per
// parameter. The effective tolerance of a parameter is max(tolerance,
// the parameter's own floor, 2x the target's recorded measurement
// spread) — the noise-aware stopping rule: never fit tighter than the
// target was measured.
const tolerance = 0.10

// maxIter caps bisection steps per parameter.
const maxIter = 10

// worstEvals is the most evaluations fitContinuous can spend on one
// parameter: the identity guess, the first bracket end, three bracket
// expansions and maxIter bisections.
const worstEvals = 1 + 1 + 3 + maxIter

// Options tunes a calibration run.
type Options struct {
	// Budget caps total candidate evaluations (suite runs) across all
	// parameters; default 400. When it expires the best profile so far
	// is returned with Converged=false.
	Budget int
	// Workers is how many parameters are probed concurrently in the
	// independent pass (default 4; one when the pass's worst case does
	// not fit in the budget left, so a fit its budget cuts short stays
	// deterministic). Parameters that feed other inversions (syscall,
	// context switch) always fit serially first.
	Workers int
	// Run overrides the candidate-evaluation suite options; nil uses
	// fast settings (small regions, adaptive sweeps, millisecond
	// samples). SweepMode defaults to adaptive either way.
	Run *core.Options
	// MaxRSD is the candidate runs' measurement-quality gate (default
	// 0.05); it stamps the spreads the objective tolerates.
	MaxRSD float64
	// Events receives CalibrateStarted/CalibrateParam/
	// CalibrateFinished through the normal suite event stream; nil
	// discards them.
	Events core.EventSink
	// CacheDir, when set, opens a content-addressed unit cache per
	// candidate evaluation. Keys include the candidate profile's own
	// fingerprint, so distinct candidates never collide and re-visiting
	// a candidate (bisection often does) is a warm run.
	CacheDir string
	// Params restricts fitting to these parameter names (nil = every
	// parameter whose benchmark has a target value).
	Params []string
}

// ParamResult is one parameter's fitting outcome.
type ParamResult struct {
	// Param names the profile parameter ("syscall_us", "l1_lat_ns",
	// "l2_size", ...); Benchmark the measurement it was fitted against.
	Param     string
	Benchmark string
	// Target, Initial, Fitted and Measured are in the benchmark's
	// natural unit: the target value, the base profile's value, the
	// fitted parameter value and the suite measurement at the fitted
	// value.
	Target   float64
	Initial  float64
	Fitted   float64
	Measured float64
	// RelErr is |Measured-Target|/|Target| at the fitted value;
	// Tolerance the threshold it was fitted to.
	RelErr    float64
	Tolerance float64
	// Evals counts the candidate runs this parameter's search made,
	// usable or not. A run carried over or reused from an earlier step
	// is not an evaluation.
	Evals int
	// Converged reports RelErr <= Tolerance.
	Converged bool
	// Err carries a hard failure (measurement missing, budget
	// exhausted) when the parameter could not be fitted at all.
	Err string
}

// Result is a finished calibration.
type Result struct {
	// Profile is the fitted profile (the best candidate found).
	Profile machines.Profile
	// Params holds per-parameter outcomes in fitting order.
	Params []ParamResult
	// Evals is the total number of candidate suite evaluations, the
	// verification runs included; carried and reused runs are not
	// evaluations.
	Evals int
	// Converged reports whether every fitted parameter converged.
	Converged bool
	// Elapsed is wall time spent fitting.
	Elapsed time.Duration
	// DB is the final verification run over the fitted profile: one
	// suite pass per fitted experiment group, merged.
	DB *results.DB
}

// ErrBudget aborts candidate evaluation when Options.Budget is spent.
var ErrBudget = errors.New("calibrate: evaluation budget exhausted")

// param describes one fittable continuous profile parameter. The
// simulator's inversions make each profile field the observable it is
// calibrated from, so the identity guess (field := target) lands
// exactly for decoupled parameters and bisection only works when
// couplings (shared syscall/ctx terms, cache interactions) bend the
// response.
type param struct {
	name, bench, group string
	tol                float64
	serial             bool
	// field addresses the profile field the parameter fits.
	field func(*machines.Profile) *float64
	// min is the lowest value the simulator accepts; nil means no floor.
	min func(*machines.Profile) float64
}

// continuousParams lists the monotone parameters for p (cache-level
// latency parameters depend on how many levels p has).
func continuousParams(p machines.Profile) []param {
	ps := []param{
		{name: "syscall_us", bench: "lat_syscall", group: "table7", serial: true,
			field: func(p *machines.Profile) *float64 { return &p.SyscallUS }},
		{name: "ctx_us", bench: "lat_ctx.2p_0k", group: "table10", serial: true,
			field: func(p *machines.Profile) *float64 { return &p.CtxSwitchUS }},
		{name: "sig_install_us", bench: "lat_sig.install", group: "table8",
			field: func(p *machines.Profile) *float64 { return &p.SigInstallUS }},
		{name: "sig_catch_us", bench: "lat_sig.catch", group: "table8",
			field: func(p *machines.Profile) *float64 { return &p.SigHandlerUS }},
		{name: "fork_ms", bench: "lat_proc.fork", group: "table9",
			field: func(p *machines.Profile) *float64 { return &p.ForkMS },
			// invertOS refuses fork targets below the syscall+ctx floor.
			min: func(p *machines.Profile) float64 {
				return (3*p.SyscallUS + 2*p.CtxSwitchUS) * 1.05 / 1000
			}},
		{name: "fork_exec_ms", bench: "lat_proc.exec", group: "table9",
			field: func(p *machines.Profile) *float64 { return &p.ForkExecMS },
			min:   func(p *machines.Profile) float64 { return p.ForkMS }},
		{name: "fork_sh_ms", bench: "lat_proc.sh", group: "table9",
			field: func(p *machines.Profile) *float64 { return &p.ForkShMS },
			min:   func(p *machines.Profile) float64 { return p.ForkExecMS }},
		{name: "tcp_lat_us", bench: "lat_tcp", group: "table12",
			field: func(p *machines.Profile) *float64 { return &p.TCPLatUS }},
		{name: "rpc_tcp_us", bench: "lat_rpc_tcp", group: "table12",
			field: func(p *machines.Profile) *float64 { return &p.RPCTCPLatUS },
			min:   func(p *machines.Profile) float64 { return p.TCPLatUS }},
		{name: "udp_lat_us", bench: "lat_udp", group: "table13",
			field: func(p *machines.Profile) *float64 { return &p.UDPLatUS }},
		{name: "rpc_udp_us", bench: "lat_rpc_udp", group: "table13",
			field: func(p *machines.Profile) *float64 { return &p.RPCUDPLatUS },
			min:   func(p *machines.Profile) float64 { return p.UDPLatUS }},
		{name: "connect_us", bench: "lat_connect", group: "table15",
			field: func(p *machines.Profile) *float64 { return &p.ConnectUS },
			min:   func(p *machines.Profile) float64 { return p.TCPLatUS }},
		{name: "fs_create_us", bench: "lat_fs.create", group: "table16",
			field: func(p *machines.Profile) *float64 { return &p.FSCreateUS }},
		{name: "fs_delete_us", bench: "lat_fs.delete", group: "table16",
			field: func(p *machines.Profile) *float64 { return &p.FSDeleteUS }},
		{name: "disk_overhead_us", bench: "lat_disk.scsi_overhead", group: "table17",
			field: func(p *machines.Profile) *float64 { return &p.DiskOverheadUS }},
		{name: "read_bw", bench: "bw_mem.read", group: "table2",
			field: func(p *machines.Profile) *float64 { return &p.ReadBW }},
		{name: "write_bw", bench: "bw_mem.write", group: "table2",
			field: func(p *machines.Profile) *float64 { return &p.WriteBW }},
		// The memory-hierarchy extraction quantizes latencies onto
		// plateau levels, so these fit to a looser default tolerance.
		{name: "mem_lat_ns", bench: "cache.mem_lat", group: "table6", tol: 0.25,
			field: func(p *machines.Profile) *float64 { return &p.MemLatNS },
			min: func(p *machines.Profile) float64 {
				if n := len(p.Caches); n > 0 {
					return p.Caches[n-1].LatencyNS
				}
				return 0
			}},
	}
	for i := range p.Caches {
		ps = append(ps, param{
			name: fmt.Sprintf("l%d_lat_ns", i+1), bench: fmt.Sprintf("cache.l%d_lat", i+1),
			group: "table6", tol: 0.25,
			field: func(p *machines.Profile) *float64 { return &p.Caches[i].LatencyNS },
		})
	}
	return ps
}

// clone deep-copies the profile's slices so candidate mutation never
// aliases the base.
func clone(p machines.Profile) machines.Profile {
	c := p
	c.Caches = append([]simmem.CacheConfig(nil), p.Caches...)
	c.Media = append([]simnet.Medium(nil), p.Media...)
	return c
}

// fitter is the state of one Calibrate invocation.
type fitter struct {
	opts   Options
	events core.EventSink
	evals  atomic.Int64
}

// runOpts derives the candidate-evaluation suite options for profile
// p and group: the configured (or fast default) options with adaptive
// sweeps, and memory regions grown to cover p's hierarchy when the
// group sweeps it.
func (f *fitter) runOpts(p machines.Profile, group string) core.Options {
	o := core.FastOptions()
	if f.opts.Run != nil {
		o = *f.opts.Run
	}
	if o.SweepMode == "" {
		o.SweepMode = core.SweepAdaptive
	}
	if group == "table6" || group == "figure1" {
		// The extraction needs the sweep to leave the largest cache.
		var total int64
		for _, c := range p.Caches {
			total += c.Size
		}
		o.MaxChaseSize = max(o.MaxChaseSize, 4*total)
		o.MemSize = max(o.MemSize, o.MaxChaseSize)
	}
	return o
}

// measure runs one experiment group on candidate profile p and
// returns the resulting database. Build errors come back unwrapped so
// bisection can interpret "profile rejected" (usually a floor
// violation) as a too-low probe. Only evaluations the budget admits
// count toward it.
func (f *fitter) measure(ctx context.Context, p machines.Profile, group string) (*results.DB, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.evals.Add(1) > int64(f.opts.Budget) {
		f.evals.Add(-1)
		return nil, ErrBudget
	}
	m, err := machines.Build(p)
	if err != nil {
		return nil, err
	}
	opts := f.runOpts(p, group)
	suite := &core.Suite{M: m, Opts: opts, Only: map[string]bool{group: true}, MaxRSD: f.opts.MaxRSD}
	if f.opts.CacheDir != "" {
		cache, err := f.openCache(p, opts)
		if err != nil {
			return nil, err
		}
		suite.Cache = cache
	}
	db := &results.DB{}
	if _, err := suite.Run(ctx, db); err != nil {
		return nil, err
	}
	return db, nil
}

// openCache opens the unit cache for one candidate evaluation. The key
// covers everything the suite's bytes depend on: the candidate's own
// fingerprint, the run options and the quality gate the candidate runs
// under, which stamps quality.* attrs into every entry.
func (f *fitter) openCache(p machines.Profile, opts core.Options) (*unitcache.Cache, error) {
	cand := clone(p)
	return unitcache.Open(f.opts.CacheDir, opts, unitcache.Config{
		MaxRSD: f.opts.MaxRSD,
		Resolve: func(name string) (machines.Profile, bool) {
			return cand, name == cand.Name
		},
	})
}

// run measures group on a clone of prof changed by set. A candidate
// the simulator rejected (usually a floor violation or a geometry it
// cannot build) yields an empty database, in which every benchmark is
// unusable; err is non-nil only for a fatal error, a spent budget or a
// done context, which ends the whole fit.
func (f *fitter) run(ctx context.Context, prof machines.Profile, group string, set func(*machines.Profile)) (*results.DB, error) {
	cand := clone(prof)
	set(&cand)
	db, err := f.measure(ctx, cand, group)
	if err != nil {
		if errors.Is(err, ErrBudget) || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return &results.DB{}, nil
	}
	return db, nil
}

// probe measures bench on a clone of prof changed by set. A candidate
// that cannot be measured, or whose run produced no such scalar, is
// unusable; err is as for run.
func (f *fitter) probe(ctx context.Context, prof machines.Profile, group, bench string, set func(*machines.Profile)) (v float64, usable bool, err error) {
	db, err := f.run(ctx, prof, group, set)
	if err != nil {
		return 0, false, err
	}
	v, usable = db.Scalar(bench, prof.Name)
	return v, usable, nil
}

func relErr(got, want float64) float64 {
	den := math.Abs(want)
	if den == 0 {
		den = 1
	}
	return math.Abs(got-want) / den
}

// fitContinuous descends one monotone parameter on a copy of prof and
// returns the outcome; the caller applies res.Fitted on success.
//
// Strategy: the identity guess first (Build inverts each field from
// the very observable we are fitting, so field := target is exact for
// decoupled parameters), then bracketed bisection for the coupled
// remainder. The measured observable is monotone increasing in every
// field listed in continuousParams, which is what Build's own
// inversions already rely on.
func (f *fitter) fitContinuous(ctx context.Context, prof machines.Profile, pm param, target, spread float64) ParamResult {
	tol := max(tolerance, pm.tol, 2*spread)
	res := ParamResult{Param: pm.name, Benchmark: pm.bench, Target: target,
		Initial: *pm.field(&prof), Tolerance: tol}
	floor := 0.0
	if pm.min != nil {
		floor = pm.min(&prof)
	}
	// eval probes the observable with the parameter set to v; an
	// unusable probe means v is effectively below a floor.
	eval := func(v float64) (got float64, ok bool, err error) {
		got, ok, err = f.probe(ctx, prof, pm.group, pm.bench, func(c *machines.Profile) { *pm.field(c) = v })
		if err == nil {
			res.Evals++
		}
		return got, ok, err
	}
	guess := max(target, floor)
	// The closest usable probe so far; with none, the guess stands.
	best, bestGot, bestErr := guess, 0.0, math.Inf(1)
	consider := func(v, got float64, ok bool) {
		if e := relErr(got, target); ok && e < bestErr {
			best, bestGot, bestErr = v, got, e
		}
	}
	search := func() error {
		got, ok, err := eval(guess)
		if err != nil {
			return err
		}
		consider(guess, got, ok)
		if bestErr <= tol {
			return nil
		}
		// Bracket [lo, hi] around the target with measured(lo) below
		// it and measured(hi) above. Unusable probes behave as "too
		// low". Only the final bracket end competes for best.
		lo, hi := max(floor, guess/4), guess*4
		if hi <= lo {
			hi = lo*4 + 1
		}
		got, ok, err = eval(hi)
		for expand := 0; err == nil && expand < 3 && ok && got < target; expand++ {
			hi *= 4
			got, ok, err = eval(hi)
		}
		if err != nil {
			return err
		}
		consider(hi, got, ok)
		for i := 0; i < maxIter && bestErr > tol; i++ {
			mid := (lo + hi) / 2
			got, ok, err := eval(mid)
			if err != nil {
				return err
			}
			if !ok || got < target {
				lo = mid
			} else {
				hi = mid
			}
			consider(mid, got, ok)
		}
		return nil
	}
	if err := search(); err != nil {
		res.Err, res.Fitted, res.RelErr = err.Error(), res.Initial, math.Inf(1)
	} else {
		res.Fitted, res.Measured, res.RelErr = best, bestGot, relErr(bestGot, target)
		res.Converged = res.RelErr <= tol
	}
	return res
}

// geomFit is one discrete geometry fit requested by the target: a
// cache level's size or the line size.
type geomFit struct {
	name, bench string
	level       int // cache level index, -1 for line size
	want        float64
}

// apply sets the fit's geometry dimension of p to v.
func (g geomFit) apply(p *machines.Profile, v float64) {
	if g.level >= 0 {
		p.Caches[g.level].Size = int64(v)
		return
	}
	for i := range p.Caches {
		p.Caches[i].LineSize = int(v)
	}
}

// fitGeometry fits one geometry dimension on a log grid: for cache
// sizes, powers of two within [target/4, 4*target]; for the line size,
// the classic {16..256} ladder. The memory-hierarchy extraction
// reports discrete plateau edges, so the best candidate is normally
// exact. The current value is judged first: from cur, the current
// profile's Table-6 run carried from the previous geometry fit, when
// setting the value leaves the profile as it is; otherwise (no run yet,
// or a line size the levels do not all share) it is measured. The grid
// is then tried nearest to the target first, by |log(v/want)| with ties
// in grid order, until a candidate lands within tolerance; candidates
// the simulator rejects (e.g. a size that does not divide into the
// level's associativity) are skipped. The best candidate so far lives
// in res and is applied to prof; the returned run is the one of prof as
// it then stands (nil when prof has not been measured).
func (f *fitter) fitGeometry(ctx context.Context, prof *machines.Profile, g geomFit, cur *results.DB) (ParamResult, *results.DB) {
	tol := max(tolerance, 0.25)
	res := ParamResult{Param: g.name, Benchmark: g.bench, Target: g.want, Tolerance: tol,
		Measured: math.NaN(), RelErr: math.Inf(1)}
	var grid []float64
	if g.level >= 0 {
		res.Initial = float64(prof.Caches[g.level].Size)
		for v := float64(1024); v <= g.want*4; v *= 2 {
			if v >= g.want/4 {
				grid = append(grid, v)
			}
		}
	} else {
		res.Initial = float64(prof.Caches[0].LineSize)
		grid = []float64{16, 32, 64, 128, 256}
	}
	res.Fitted = res.Initial
	grid = slices.DeleteFunc(grid, func(v float64) bool { return v == res.Initial })
	dist := func(v float64) float64 { return math.Abs(math.Log(v / g.want)) }
	slices.SortStableFunc(grid, func(a, b float64) int { return cmp.Compare(dist(a), dist(b)) })
	// measure runs Table 6 with the dimension at v; judge takes a run's
	// extraction into res and reports whether the walk may stop.
	measure := func(v float64) (*results.DB, bool) {
		db, err := f.run(ctx, *prof, "table6", func(c *machines.Profile) { g.apply(c, v) })
		if err != nil {
			res.Err = err.Error()
			return nil, false
		}
		res.Evals++
		return db, true
	}
	// first is the run the current value is judged from.
	at := clone(*prof)
	g.apply(&at, res.Initial)
	unchanged := slices.Equal(at.Caches, prof.Caches)
	first := cur
	if cur == nil || !unchanged {
		var ok bool
		if first, ok = measure(res.Initial); !ok {
			return res, cur
		}
		if unchanged {
			cur = first
		}
	}
	best := cur
	judge := func(v float64, db *results.DB) bool {
		got, ok := db.Scalar(g.bench, prof.Name)
		if e := relErr(got, g.want); ok && e < res.RelErr {
			res.Fitted, res.Measured, res.RelErr = v, got, e
			best = db
		}
		return res.RelErr <= tol
	}
	if !judge(res.Initial, first) {
		for _, v := range grid {
			db, ok := measure(v)
			if !ok || judge(v, db) {
				break
			}
		}
	}
	res.Converged = res.RelErr <= tol
	if !math.IsInf(res.RelErr, 1) {
		g.apply(prof, res.Fitted)
	}
	return res, best
}

func (f *fitter) emitParam(machine string, res ParamResult) {
	f.events.Event(core.Event{
		Kind: core.CalibrateParam, Time: time.Now(), Machine: machine,
		Experiment: res.Param, Title: res.Benchmark,
		Attempt: res.Evals, Spread: res.RelErr, Err: res.Err,
	})
}

// Calibrate fits base's parameters so the simulated suite reproduces
// target's measurements, returning the fitted profile and the
// per-parameter trace. Only parameters whose benchmark appears in
// target.Values (optionally restricted by opts.Params) are fitted; the
// rest of the profile is untouched.
func Calibrate(ctx context.Context, base machines.Profile, target Target, opts Options) (*Result, error) {
	if base.Name == "" {
		return nil, errors.New("calibrate: base profile needs a name")
	}
	if len(target.Values) == 0 {
		return nil, errors.New("calibrate: target has no values")
	}
	if opts.Budget <= 0 {
		opts.Budget = 400
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.MaxRSD <= 0 {
		opts.MaxRSD = 0.05
	}

	f := &fitter{opts: opts, events: core.SinkOrDiscard(opts.Events)}
	prof := clone(base)
	if opts.CacheDir != "" {
		// An unusable cache directory fails the fit here, not as an
		// unusable probe on every candidate.
		if _, err := f.openCache(prof, f.runOpts(prof, "")); err != nil {
			return nil, err
		}
	}

	want := func(name string) bool { return len(opts.Params) == 0 || slices.Contains(opts.Params, name) }

	var serial, parallel []param
	for _, pm := range continuousParams(prof) {
		if _, ok := target.Values[pm.bench]; !ok || !want(pm.name) {
			continue
		}
		if pm.serial {
			serial = append(serial, pm)
		} else {
			parallel = append(parallel, pm)
		}
	}
	var geom []geomFit
	for i := range prof.Caches {
		name, bench := fmt.Sprintf("l%d_size", i+1), fmt.Sprintf("cache.l%d_size", i+1)
		if v, ok := target.Values[bench]; ok && want(name) {
			geom = append(geom, geomFit{name: name, bench: bench, level: i, want: v})
		}
	}
	if v, ok := target.Values["cache.line_size"]; ok && want("line_size") {
		geom = append(geom, geomFit{name: "line_size", bench: "cache.line_size", level: -1, want: v})
	}
	total := len(serial) + len(parallel) + len(geom)
	if total == 0 {
		return nil, errors.New("calibrate: no fittable parameters match the target")
	}

	start := time.Now()
	f.events.Event(core.Event{Kind: core.CalibrateStarted, Time: start, Machine: base.Name, Entries: total})

	result := &Result{}
	// settle takes a finished continuous fit into the profile (unless
	// it failed) and reports and records it in fitting order.
	settle := func(pm param, res ParamResult) {
		if res.Err == "" {
			*pm.field(&prof) = res.Fitted
		}
		f.emitParam(base.Name, res)
		result.Params = append(result.Params, res)
	}

	// Pass 1 — serial parameters. Syscall and context-switch costs
	// appear inside the fork, network and connect inversions, so they
	// must settle before anything that depends on them is probed.
	for _, pm := range serial {
		settle(pm, f.fitContinuous(ctx, prof, pm, target.Values[pm.bench], target.Spread[pm.bench]))
	}

	// Pass 2 — discrete geometry, before the latency fits that read
	// the same extraction. The current profile's Table-6 run is
	// measured once and carried from fit to fit: each fit's winning
	// candidate brings its own run.
	var table6 *results.DB
	for _, g := range geom {
		var res ParamResult
		res, table6 = f.fitGeometry(ctx, &prof, g, table6)
		f.emitParam(base.Name, res)
		result.Params = append(result.Params, res)
	}

	// Pass 3 — independent parameters, probed concurrently. Each
	// worker perturbs only its own field on a copy of the settled
	// profile, so probes cannot race; workers take parameters in
	// declaration order, and fitted values settle afterwards in that
	// order. Workers racing for the last evaluations would make the
	// outcome depend on scheduling, so when the pass's worst case does
	// not fit in what is left of the budget one worker fits the
	// parameters in turn.
	workers := opts.Workers
	if f.evals.Load()+worstEvals*int64(len(parallel)) > int64(opts.Budget) {
		workers = 1
	}
	fits := make([]ParamResult, len(parallel))
	order := make(chan int, len(parallel))
	for i := range parallel {
		order <- i
	}
	close(order)
	var wg sync.WaitGroup
	for range min(workers, len(parallel)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range order {
				pm := parallel[i]
				fits[i] = f.fitContinuous(ctx, prof, pm, target.Values[pm.bench], target.Spread[pm.bench])
			}
		}()
	}
	wg.Wait()
	for i, pm := range parallel {
		settle(pm, fits[i])
	}

	// Verification pass: measure every fitted group once on the final
	// profile and restate each parameter's error against it. Coupled
	// parameters that drifted (a later fit moved their observable) get
	// one serial re-fit. The final restatement measures afresh only
	// when a re-fit changed the profile; otherwise the first pass's
	// runs are the final profile's.
	groups := map[string]*results.DB{}
	verify := func() {
		for i := range result.Params {
			res := &result.Params[i]
			pm, ok := paramByName(prof, res.Param)
			if !ok {
				continue
			}
			if _, have := groups[pm.group]; !have {
				db, err := f.measure(ctx, prof, pm.group)
				if err != nil {
					continue
				}
				groups[pm.group] = db
			}
			if got, ok := groups[pm.group].Scalar(res.Benchmark, prof.Name); ok {
				res.Measured = got
				res.RelErr = relErr(got, res.Target)
				res.Converged = res.RelErr <= res.Tolerance && res.Err == ""
			}
		}
	}
	verify()
	for i := range result.Params {
		res := &result.Params[i]
		if res.Converged || res.Err != "" {
			continue
		}
		pm, ok := paramByName(prof, res.Param)
		if !ok {
			continue
		}
		refit := f.fitContinuous(ctx, prof, pm, res.Target, target.Spread[res.Benchmark])
		if refit.Err == "" && refit.Fitted != *pm.field(&prof) {
			*pm.field(&prof) = refit.Fitted
			clear(groups)
		}
		refit.Evals += res.Evals
		*res = refit
		f.emitParam(base.Name, *res)
	}

	// The groups measure disjoint benchmarks, so merge order cannot
	// change the verification database.
	verify()
	result.DB = &results.DB{}
	for _, db := range groups {
		result.DB.Merge(db)
	}
	result.Profile = prof
	result.Evals = int(f.evals.Load())
	result.Elapsed = time.Since(start)
	converged, errMsg := 0, ""
	for _, res := range result.Params {
		switch {
		case res.Converged:
			converged++
		case errMsg == "" && res.Err != "":
			errMsg = fmt.Sprintf("%s: %s", res.Param, res.Err)
		}
	}
	result.Converged = converged == len(result.Params)
	f.events.Event(core.Event{
		Kind: core.CalibrateFinished, Time: time.Now(), Machine: base.Name,
		Entries: converged, Attempt: result.Evals, Duration: result.Elapsed, Err: errMsg,
	})
	return result, nil
}

// paramByName rebinds a parameter descriptor against the current
// profile (cache-level parameters depend on the level count).
func paramByName(p machines.Profile, name string) (param, bool) {
	for _, pm := range continuousParams(p) {
		if pm.name == name {
			return pm, true
		}
	}
	return param{}, false
}
