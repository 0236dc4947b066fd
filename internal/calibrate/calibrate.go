package calibrate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
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

// Options tunes a calibration run.
type Options struct {
	// Tolerance is the default relative-error stopping threshold per
	// parameter (default 0.10). The effective tolerance of a parameter
	// is max(Tolerance, the parameter's own floor, 2x the target's
	// recorded measurement spread) — the noise-aware stopping rule:
	// never fit tighter than the target was measured.
	Tolerance float64
	// Budget caps total candidate evaluations (suite runs) across all
	// parameters; default 400. When it expires the best profile so far
	// is returned with Converged=false.
	Budget int
	// MaxIter caps bisection steps per parameter (default 10).
	MaxIter int
	// Workers is how many parameters are probed concurrently in the
	// independent pass (default 4). Parameters that feed other
	// inversions (syscall, context switch) always fit serially first.
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
	// Evals counts candidate evaluations this parameter consumed.
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
	// Evals is the total number of candidate suite evaluations.
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
	name   string
	bench  string
	group  string
	tol    float64
	serial bool
	get    func(*machines.Profile) float64
	set    func(*machines.Profile, float64)
	min    func(*machines.Profile) float64
}

func noFloor(*machines.Profile) float64 { return 0 }

// continuousParams lists the monotone parameters for p (cache-level
// latency parameters depend on how many levels p has).
func continuousParams(p machines.Profile) []param {
	ps := []param{
		{name: "syscall_us", bench: "lat_syscall", group: "table7", serial: true,
			get: func(p *machines.Profile) float64 { return p.SyscallUS },
			set: func(p *machines.Profile, v float64) { p.SyscallUS = v }, min: noFloor},
		{name: "ctx_us", bench: "lat_ctx.2p_0k", group: "table10", serial: true,
			get: func(p *machines.Profile) float64 { return p.CtxSwitchUS },
			set: func(p *machines.Profile, v float64) { p.CtxSwitchUS = v }, min: noFloor},
		{name: "sig_install_us", bench: "lat_sig.install", group: "table8",
			get: func(p *machines.Profile) float64 { return p.SigInstallUS },
			set: func(p *machines.Profile, v float64) { p.SigInstallUS = v }, min: noFloor},
		{name: "sig_catch_us", bench: "lat_sig.catch", group: "table8",
			get: func(p *machines.Profile) float64 { return p.SigHandlerUS },
			set: func(p *machines.Profile, v float64) { p.SigHandlerUS = v }, min: noFloor},
		{name: "fork_ms", bench: "lat_proc.fork", group: "table9",
			get: func(p *machines.Profile) float64 { return p.ForkMS },
			set: func(p *machines.Profile, v float64) { p.ForkMS = v },
			// invertOS refuses fork targets below the syscall+ctx floor.
			min: func(p *machines.Profile) float64 {
				return (3*p.SyscallUS + 2*p.CtxSwitchUS) * 1.05 / 1000
			}},
		{name: "fork_exec_ms", bench: "lat_proc.exec", group: "table9",
			get: func(p *machines.Profile) float64 { return p.ForkExecMS },
			set: func(p *machines.Profile, v float64) { p.ForkExecMS = v },
			min: func(p *machines.Profile) float64 { return p.ForkMS }},
		{name: "fork_sh_ms", bench: "lat_proc.sh", group: "table9",
			get: func(p *machines.Profile) float64 { return p.ForkShMS },
			set: func(p *machines.Profile, v float64) { p.ForkShMS = v },
			min: func(p *machines.Profile) float64 { return p.ForkExecMS }},
		{name: "tcp_lat_us", bench: "lat_tcp", group: "table12",
			get: func(p *machines.Profile) float64 { return p.TCPLatUS },
			set: func(p *machines.Profile, v float64) { p.TCPLatUS = v }, min: noFloor},
		{name: "rpc_tcp_us", bench: "lat_rpc_tcp", group: "table12",
			get: func(p *machines.Profile) float64 { return p.RPCTCPLatUS },
			set: func(p *machines.Profile, v float64) { p.RPCTCPLatUS = v },
			min: func(p *machines.Profile) float64 { return p.TCPLatUS }},
		{name: "udp_lat_us", bench: "lat_udp", group: "table13",
			get: func(p *machines.Profile) float64 { return p.UDPLatUS },
			set: func(p *machines.Profile, v float64) { p.UDPLatUS = v }, min: noFloor},
		{name: "rpc_udp_us", bench: "lat_rpc_udp", group: "table13",
			get: func(p *machines.Profile) float64 { return p.RPCUDPLatUS },
			set: func(p *machines.Profile, v float64) { p.RPCUDPLatUS = v },
			min: func(p *machines.Profile) float64 { return p.UDPLatUS }},
		{name: "connect_us", bench: "lat_connect", group: "table15",
			get: func(p *machines.Profile) float64 { return p.ConnectUS },
			set: func(p *machines.Profile, v float64) { p.ConnectUS = v },
			min: func(p *machines.Profile) float64 { return p.TCPLatUS }},
		{name: "fs_create_us", bench: "lat_fs.create", group: "table16",
			get: func(p *machines.Profile) float64 { return p.FSCreateUS },
			set: func(p *machines.Profile, v float64) { p.FSCreateUS = v }, min: noFloor},
		{name: "fs_delete_us", bench: "lat_fs.delete", group: "table16",
			get: func(p *machines.Profile) float64 { return p.FSDeleteUS },
			set: func(p *machines.Profile, v float64) { p.FSDeleteUS = v }, min: noFloor},
		{name: "disk_overhead_us", bench: "lat_disk.scsi_overhead", group: "table17",
			get: func(p *machines.Profile) float64 { return p.DiskOverheadUS },
			set: func(p *machines.Profile, v float64) { p.DiskOverheadUS = v }, min: noFloor},
		{name: "read_bw", bench: "bw_mem.read", group: "table2",
			get: func(p *machines.Profile) float64 { return p.ReadBW },
			set: func(p *machines.Profile, v float64) { p.ReadBW = v }, min: noFloor},
		{name: "write_bw", bench: "bw_mem.write", group: "table2",
			get: func(p *machines.Profile) float64 { return p.WriteBW },
			set: func(p *machines.Profile, v float64) { p.WriteBW = v }, min: noFloor},
		// The memory-hierarchy extraction quantizes latencies onto
		// plateau levels, so these fit to a looser default tolerance.
		{name: "mem_lat_ns", bench: "cache.mem_lat", group: "table6", tol: 0.25,
			get: func(p *machines.Profile) float64 { return p.MemLatNS },
			set: func(p *machines.Profile, v float64) { p.MemLatNS = v },
			min: func(p *machines.Profile) float64 {
				if n := len(p.Caches); n > 0 {
					return p.Caches[n-1].LatencyNS
				}
				return 0
			}},
	}
	for i := range p.Caches {
		lvl := i
		ps = append(ps, param{
			name: fmt.Sprintf("l%d_lat_ns", lvl+1), bench: fmt.Sprintf("cache.l%d_lat", lvl+1),
			group: "table6", tol: 0.25,
			get: func(p *machines.Profile) float64 { return p.Caches[lvl].LatencyNS },
			set: func(p *machines.Profile, v float64) { p.Caches[lvl].LatencyNS = v },
			min: noFloor,
		})
	}
	return ps
}

// lineSizeGrid is the discrete line-size search space.
var lineSizeGrid = []int{16, 32, 64, 128, 256}

// clone deep-copies the profile's slices so candidate mutation never
// aliases the base.
func clone(p machines.Profile) machines.Profile {
	c := p
	c.Caches = append([]simmem.CacheConfig(nil), p.Caches...)
	c.Media = append([]simnet.Medium(nil), p.Media...)
	return c
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// fitter is the state of one Calibrate invocation.
type fitter struct {
	opts   Options
	target Target
	events core.EventSink
	evals  atomic.Int64
}

func (f *fitter) spent() int { return int(f.evals.Load()) }

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
		if need := 4 * total; o.MaxChaseSize < need {
			o.MaxChaseSize = need
		}
		if o.MemSize < o.MaxChaseSize {
			o.MemSize = o.MaxChaseSize
		}
	}
	return o
}

// measure runs one experiment group on candidate profile p and
// returns the resulting database. Build errors come back unwrapped so
// bisection can interpret "profile rejected" (usually a floor
// violation) as a too-low probe.
func (f *fitter) measure(ctx context.Context, p machines.Profile, group string) (*results.DB, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n := f.evals.Add(1); n > int64(f.opts.Budget) {
		return nil, ErrBudget
	}
	m, err := machines.Build(p)
	if err != nil {
		return nil, err
	}
	opts := f.runOpts(p, group)
	suite := &core.Suite{
		M: m, Opts: opts,
		Only:   map[string]bool{group: true},
		MaxRSD: f.opts.MaxRSD,
	}
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

// scalar measures group on p and extracts bench.
func (f *fitter) scalar(ctx context.Context, p machines.Profile, group, bench string) (float64, error) {
	db, err := f.measure(ctx, p, group)
	if err != nil {
		return 0, err
	}
	v, ok := db.Scalar(bench, p.Name)
	if !ok {
		return 0, fmt.Errorf("calibrate: run produced no scalar %q", bench)
	}
	return v, nil
}

func relErr(got, want float64) float64 {
	den := math.Abs(want)
	if den == 0 {
		den = 1
	}
	return math.Abs(got-want) / den
}

// isBudget reports errors that must abort the whole calibration
// rather than just mark one probe unusable.
func isTerminal(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
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
	tol := maxf(maxf(f.opts.Tolerance, pm.tol), 2*spread)
	res := ParamResult{
		Param: pm.name, Benchmark: pm.bench, Target: target,
		Initial: pm.get(&prof), Tolerance: tol,
	}
	floor := pm.min(&prof)

	// eval measures the observable with the parameter set to v.
	// ok=false flags an unusable probe (the profile was rejected,
	// i.e. v is effectively below a floor).
	eval := func(v float64) (got float64, ok bool, err error) {
		cand := clone(prof)
		pm.set(&cand, v)
		got, err = f.scalar(ctx, cand, pm.group, pm.bench)
		if err != nil {
			if isTerminal(err) {
				return 0, false, err
			}
			return 0, false, nil
		}
		return got, true, nil
	}
	accept := func(v, got float64) ParamResult {
		res.Fitted = v
		res.Measured = got
		res.RelErr = relErr(got, target)
		res.Converged = res.RelErr <= tol
		return res
	}
	fail := func(err error) ParamResult {
		res.Err = err.Error()
		res.Fitted = res.Initial
		res.RelErr = math.Inf(1)
		return res
	}

	guess := target
	if guess < floor {
		guess = floor
	}
	res.Evals++
	got, ok, err := eval(guess)
	if err != nil {
		return fail(err)
	}
	if ok && relErr(got, target) <= tol {
		return accept(guess, got)
	}

	// Bracket [lo, hi] around the target with measured(lo) below it
	// and measured(hi) above. Unusable probes behave as "too low".
	lo, hi := maxf(floor, guess/4), guess*4
	if hi <= lo {
		hi = lo*4 + 1
	}
	hiGot, hiOK, err := eval(hi)
	if err != nil {
		return fail(err)
	}
	res.Evals++
	for expand := 0; expand < 3 && hiOK && hiGot < target; expand++ {
		hi *= 4
		hiGot, hiOK, err = eval(hi)
		if err != nil {
			return fail(err)
		}
		res.Evals++
	}

	best, bestGot, bestErr := guess, got, math.Inf(1)
	if ok {
		bestErr = relErr(got, target)
	}
	if hiOK {
		if e := relErr(hiGot, target); e < bestErr {
			best, bestGot, bestErr = hi, hiGot, e
		}
	}
	for i := 0; i < f.opts.MaxIter && bestErr > tol; i++ {
		mid := (lo + hi) / 2
		got, ok, err := eval(mid)
		if err != nil {
			return fail(err)
		}
		res.Evals++
		if !ok || got < target {
			lo = mid
			// An unusable midpoint keeps bestErr; a usable one may
			// still be the closest seen.
		} else {
			hi = mid
		}
		if ok {
			if e := relErr(got, target); e < bestErr {
				best, bestGot, bestErr = mid, got, e
			}
		}
	}
	return accept(best, bestGot)
}

// geometryTargets returns the discrete geometry fits requested by the
// target: per-level cache sizes and the line size.
type geomFit struct {
	name  string
	bench string
	level int // cache level index, -1 for line size
	want  float64
}

func (f *fitter) geometryFits(prof machines.Profile) []geomFit {
	var out []geomFit
	for i := range prof.Caches {
		bench := fmt.Sprintf("cache.l%d_size", i+1)
		if want, ok := f.target.Values[bench]; ok {
			out = append(out, geomFit{name: fmt.Sprintf("l%d_size", i+1), bench: bench, level: i, want: want})
		}
	}
	if want, ok := f.target.Values["cache.line_size"]; ok {
		out = append(out, geomFit{name: "line_size", bench: "cache.line_size", level: -1, want: want})
	}
	return out
}

// fitGeometry walks a log grid per requested geometry dimension: for
// cache sizes, powers of two within [target/4, 4*target]; for the line
// size, the classic {16..256} ladder. The memory-hierarchy extraction
// reports discrete plateau edges, so the best candidate is normally
// exact; candidates the simulator rejects (e.g. a size that does not
// divide into the level's associativity) are skipped.
func (f *fitter) fitGeometry(ctx context.Context, prof *machines.Profile, g geomFit) ParamResult {
	tol := maxf(f.opts.Tolerance, 0.25)
	res := ParamResult{Param: g.name, Benchmark: g.bench, Target: g.want, Tolerance: tol}

	var candidates []float64
	apply := func(p *machines.Profile, v float64) {
		if g.level >= 0 {
			p.Caches[g.level].Size = int64(v)
		} else {
			for i := range p.Caches {
				p.Caches[i].LineSize = int(v)
			}
		}
	}
	if g.level >= 0 {
		res.Initial = float64(prof.Caches[g.level].Size)
		lo := g.want / 4
		for v := float64(1024); v <= g.want*4; v *= 2 {
			if v >= lo {
				candidates = append(candidates, v)
			}
		}
	} else {
		res.Initial = float64(prof.Caches[0].LineSize)
		for _, v := range lineSizeGrid {
			candidates = append(candidates, float64(v))
		}
	}
	// Current geometry first: if it already extracts within tolerance
	// the grid walk is skipped entirely.
	order := append([]float64{res.Initial}, candidates...)

	bestV, bestGot, bestErr := res.Initial, math.NaN(), math.Inf(1)
	for _, v := range order {
		cand := clone(*prof)
		apply(&cand, v)
		got, err := f.scalar(ctx, cand, "table6", g.bench)
		if err != nil {
			if isTerminal(err) {
				res.Err = err.Error()
				break
			}
			continue // rejected geometry: skip the grid point
		}
		res.Evals++
		if e := relErr(got, g.want); e < bestErr {
			bestV, bestGot, bestErr = v, got, e
		}
		if bestErr <= tol && v != res.Initial {
			break
		}
		if v == res.Initial && bestErr <= tol {
			break // current geometry already matches
		}
	}
	res.Fitted = bestV
	res.Measured = bestGot
	res.RelErr = bestErr
	res.Converged = bestErr <= tol
	if res.Converged || !math.IsInf(bestErr, 1) {
		apply(prof, bestV)
	}
	return res
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
	if opts.Tolerance <= 0 {
		opts.Tolerance = 0.10
	}
	if opts.Budget <= 0 {
		opts.Budget = 400
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 10
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.MaxRSD <= 0 {
		opts.MaxRSD = 0.05
	}

	f := &fitter{opts: opts, target: target, events: core.SinkOrDiscard(opts.Events)}
	prof := clone(base)
	if opts.CacheDir != "" {
		// An unusable cache directory fails the fit here, not as an
		// unusable probe on every candidate.
		if _, err := f.openCache(prof, f.runOpts(prof, "")); err != nil {
			return nil, err
		}
	}

	only := map[string]bool{}
	for _, name := range opts.Params {
		only[name] = true
	}
	want := func(name string) bool { return len(only) == 0 || only[name] }

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
	for _, g := range f.geometryFits(prof) {
		if want(g.name) {
			geom = append(geom, g)
		}
	}
	total := len(serial) + len(parallel) + len(geom)
	if total == 0 {
		return nil, errors.New("calibrate: no fittable parameters match the target")
	}

	start := time.Now()
	f.events.Event(core.Event{
		Kind: core.CalibrateStarted, Time: start, Machine: base.Name, Entries: total,
	})

	result := &Result{Converged: true}

	// Pass 1 — serial parameters. Syscall and context-switch costs
	// appear inside the fork, network and connect inversions, so they
	// must settle before anything that depends on them is probed.
	for _, pm := range serial {
		res := f.fitContinuous(ctx, prof, pm, target.Values[pm.bench], target.Spread[pm.bench])
		if res.Err == "" {
			pm.set(&prof, res.Fitted)
		}
		f.emitParam(base.Name, res)
		result.Params = append(result.Params, res)
	}

	// Pass 2 — discrete geometry, before the latency fits that read
	// the same extraction.
	for _, g := range geom {
		res := f.fitGeometry(ctx, &prof, g)
		f.emitParam(base.Name, res)
		result.Params = append(result.Params, res)
	}

	// Pass 3 — independent parameters, probed concurrently. Each
	// worker perturbs only its own field on a copy of the settled
	// profile, so probes cannot race; fitted values apply afterwards.
	if len(parallel) > 0 {
		resCh := make(chan ParamResult, len(parallel))
		sem := make(chan struct{}, opts.Workers)
		var wg sync.WaitGroup
		for _, pm := range parallel {
			wg.Add(1)
			go func(pm param) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				resCh <- f.fitContinuous(ctx, prof, pm, target.Values[pm.bench], target.Spread[pm.bench])
			}(pm)
		}
		wg.Wait()
		close(resCh)
		byName := map[string]ParamResult{}
		for res := range resCh {
			byName[res.Param] = res
		}
		// Apply and report in declaration order, deterministically.
		for _, pm := range parallel {
			res := byName[pm.name]
			if res.Err == "" {
				pm.set(&prof, res.Fitted)
			}
			f.emitParam(base.Name, res)
			result.Params = append(result.Params, res)
		}
	}

	// Verification pass: measure every fitted group once on the final
	// profile and restate each parameter's error against it. Coupled
	// parameters that drifted (a later fit moved their observable) get
	// one serial re-fit.
	verify := func() map[string]*results.DB {
		groups := map[string]*results.DB{}
		for i := range result.Params {
			res := &result.Params[i]
			pm, ok := paramByName(prof, res.Param)
			if !ok {
				continue
			}
			db, have := groups[pm.group]
			if !have {
				var err error
				db, err = f.measure(ctx, prof, pm.group)
				if err != nil {
					continue
				}
				groups[pm.group] = db
			}
			if got, ok := db.Scalar(res.Benchmark, prof.Name); ok {
				res.Measured = got
				res.RelErr = relErr(got, res.Target)
				res.Converged = res.RelErr <= res.Tolerance && res.Err == ""
			}
		}
		return groups
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
		if refit.Err == "" {
			pm.set(&prof, refit.Fitted)
		}
		refit.Evals += res.Evals
		*res = refit
		f.emitParam(base.Name, *res)
	}
	groups := verify()

	result.Profile = prof
	result.Evals = f.spent()
	result.Elapsed = time.Since(start)
	result.DB = &results.DB{}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		result.DB.Merge(groups[k])
	}
	errMsg := ""
	for _, res := range result.Params {
		if !res.Converged {
			result.Converged = false
			if errMsg == "" && res.Err != "" {
				errMsg = fmt.Sprintf("%s: %s", res.Param, res.Err)
			}
		}
	}
	converged := 0
	for _, res := range result.Params {
		if res.Converged {
			converged++
		}
	}
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
