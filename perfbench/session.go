package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/compare"
	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/machines"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/unitcache"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	// small selects each workload's minimal-size variant (self-test).
	small bool
	// dir receives the run's stores, caches and journals.
	dir string
}

// outcome is a finished run: the operations attempted, the metrics to
// print and, untraced, the samples each timing was reduced from.
type outcome struct {
	attempted int
	metrics   map[string]metric
	samples   map[string][]float64
}

// setupReps is how many times an untraced run sets up: once in process,
// the rest in fresh processes.
const setupReps = 2

// session drives one plan through its phases.
type session struct {
	p   *plan
	cfg config
	env *setupEnv
	// g, set only in the untraced run, converts its timings to
	// reference seconds; rec is set only in the traced run.
	g         *gauge
	rec       *recorder
	t         tally
	attempted int
	// db is the last cold evaluation's database, which the short phases
	// work on. warm runs one warm pass over it; cold, set on untraced
	// calibrate-fit, one more cold pass. Both return their seconds.
	db         *results.DB
	warm, cold func() (float64, error)
	// refHash is the database every cold pass must reproduce: the golden
	// hash, catalog-fleet's serial reference run, or the first pass.
	refHash string
	// evals and fitErr are the first fit round's evaluation counts and
	// worst error; every later round must repeat them exactly. fitting is
	// the fit round in progress.
	evals   []int
	fitErr  float64
	fitting fitRound
	next    int
}

// tally holds the untraced run's samples. warm, publish and, outside
// calibrate-fit, fit hold one batch mean per round.
type tally struct {
	setup, eval, warm, publish, fit []float64 // seconds
	p50, p99                        []float64 // milliseconds, one per query burst
}

type fitRound struct {
	secs  float64
	evals []int
	worst float64
}

func runWorkload(ctx context.Context, w workload, cfg config) (*outcome, error) {
	out := &outcome{}
	p, err := w.plan(cfg.seed, cfg.small)
	if err != nil {
		return out, err
	}
	s := &session{p: p, cfg: cfg, refHash: p.goldenHash}
	defer func() { out.attempted = s.attempted }()
	if cfg.trace {
		return out, s.traced(ctx, out)
	}
	if s.g, err = newGauge(); err != nil {
		return out, err
	}
	defer s.g.close()
	return out, s.untraced(ctx, out)
}

// untraced measures the end-to-end metrics with nothing attached. A
// round of short phases follows each long step, so their samples, like
// the gauge's readings, come from across the whole run.
func (s *session) untraced(ctx context.Context, out *outcome) error {
	if err := s.g.tick(); err != nil {
		return err
	}
	start := time.Now()
	env, err := setup(ctx, s.p, nil)
	if err != nil {
		return err
	}
	s.t.setup = append(s.t.setup, time.Since(start).Seconds())
	if err := s.g.tick(); err != nil {
		return err
	}
	s.env = env
	if err := s.reference(ctx); err != nil {
		return err
	}
	for _, step := range s.steps(ctx) {
		if err := step(); err != nil {
			return err
		}
		for r := 0; r < s.p.rounds; r++ {
			if err := s.round(ctx); err != nil {
				return err
			}
		}
	}
	rank, ratioErr, err := accuracy(s.db)
	if err != nil {
		return err
	}
	t := &s.t
	out.samples = map[string][]float64{
		"setup_s": t.setup, "eval_s": t.eval, "warm_eval_s": t.warm, "publish_s": t.publish,
		"fit_s": t.fit, "query_p50_ms": t.p50, "query_p99_ms": t.p99, "gauge": s.g.reads,
	}
	// Every timing reports the median of its wall-time samples, which one
	// unusually fast or slow round cannot move, in reference seconds.
	slow := s.g.slowdown()
	return out.set(endToEnd, map[string]float64{
		"setup_s":         median(t.setup) / slow,
		"eval_s":          median(t.eval) / slow,
		"warm_eval_s":     median(t.warm) / slow,
		"publish_s":       median(t.publish) / slow,
		"query_p50_ms":    median(t.p50) / slow,
		"query_p99_ms":    median(t.p99) / slow,
		"fit_s":           median(t.fit) / slow,
		"fit_err_max":     s.fitErr,
		"paper_rank_mean": rank,
		"paper_ratio_err": ratioErr,
		"peak_rss_mb":     peakRSSMB(),
		// Laplace's rule of succession with no failures: the failure
		// rate the attempts support, which stays above zero. A failed
		// operation fails a check, and then no metric is printed.
		"fail_frac": 1 / float64(s.attempted+2),
	}, true)
}

// traced measures the per-layer metrics: set-up, the cold evaluation
// and one round of short phases, each with every recorder attached. The
// in-process cold pass runs untraced and traced side by side, which
// gives the tracing overhead.
func (s *session) traced(ctx context.Context, out *outcome) error {
	s.rec = newRecorder()
	env, err := setup(ctx, s.p, s.rec)
	if err != nil {
		return err
	}
	s.env = env
	if err := s.reference(ctx); err != nil {
		return err
	}
	if err := s.evaluate(ctx); err != nil {
		return err
	}
	if err := s.round(ctx); err != nil {
		return err
	}
	if err := s.rec.encode(s.db); err != nil {
		return err
	}
	return out.set(perLayer, s.rec.metrics(), false)
}

// set fills the metrics from values, one per def. A missing or
// non-finite value fails the run, and so does a zero end-to-end value,
// which no correct run produces.
func (o *outcome) set(defs []metricDef, values map[string]float64, nonzero bool) error {
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is %v", d.name, v)
		case nonzero && v == 0:
			return fmt.Errorf("metric %s is zero", d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	o.metrics = metrics
	return nil
}

// setupEnv is what set-up produces: the evaluated machines, built, or
// for calibrate-fit the measured fit targets.
type setupEnv struct {
	machines []core.Machine
	targets  []calibrate.Target
}

// setup builds the plan's machines — for calibrate-fit it builds each
// target and measures it with the fitter's fast options — before
// anything is timed. CLI users pay this on every run.
func setup(ctx context.Context, p *plan, rec *recorder) (*setupEnv, error) {
	env := &setupEnv{}
	for _, prof := range p.profiles {
		m, err := build(prof, rec)
		if err != nil {
			return nil, err
		}
		env.machines = append(env.machines, m)
	}
	for _, pr := range p.pairs {
		m, err := build(pr.target, rec)
		if err != nil {
			return nil, err
		}
		t, err := measureTarget(ctx, m, pr.target)
		if err != nil {
			return nil, err
		}
		env.targets = append(env.targets, t)
	}
	return env, nil
}

func build(p machines.Profile, rec *recorder) (core.Machine, error) {
	start := time.Now()
	m, err := machines.Build(p)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", p.Name, err)
	}
	rec.built(time.Since(start))
	return m, nil
}

// fitMaxRSD is calibrate's default candidate quality gate.
const fitMaxRSD = 0.05

// measureTarget measures a calibration target the way calibrate
// measures its candidates: the Table-6 hierarchy with the sweep grown
// past the caches, everything else with the plain fast options.
func measureTarget(ctx context.Context, m core.Machine, p machines.Profile) (calibrate.Target, error) {
	db := &results.DB{}
	rest := idSet(fitIDs)
	delete(rest, "table6")
	for _, s := range []*core.Suite{
		{M: m, Opts: fitterOpts(chaseNeed(p)), Only: idSet([]string{"table6"}), MaxRSD: fitMaxRSD},
		{M: m, Opts: fitterOpts(0), Only: rest, MaxRSD: fitMaxRSD},
	} {
		if _, err := s.Run(ctx, db); err != nil {
			return calibrate.Target{}, fmt.Errorf("measure target %s: %w", p.Name, err)
		}
	}
	return calibrate.FromDB(db, p.Name)
}

// reference runs catalog-fleet's units serially in process: the
// database every fleet pass must reproduce byte for byte. The traced run
// makes it side by side with its traced twin, for the tracing overhead.
func (s *session) reference(ctx context.Context) error {
	if s.p.fleetWorkers == 0 {
		return nil
	}
	var err error
	if s.rec != nil {
		_, _, err = s.overhead(ctx, s.env.machines)
	} else {
		_, _, _, err = s.coldPass(ctx, s.env.machines)
	}
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	return nil
}

// evaluations is how many times a run evaluates: --seconds divided by
// the plan's nominal iteration length, so a run's work does not depend
// on the host's speed.
func (s *session) evaluations() int {
	return max(1, int(math.Round(float64(s.cfg.seconds)/s.p.iterSeconds)))
}

// steps lists the untraced run's long steps in order. The first
// evaluates cold; then come set-ups in fresh processes, with the run's
// further evaluations between them. calibrate-fit splits each further
// fit round into its single fits, so its rounds spread evenly.
func (s *session) steps(ctx context.Context) []func() error {
	var later []func() error
	for r := 1; r < s.evaluations(); r++ {
		if len(s.p.pairs) == 0 {
			later = append(later, func() error { return s.evaluate(ctx) })
			continue
		}
		for i := range s.p.pairs {
			later = append(later, func() error {
				_, err := s.fitPair(ctx, i)
				return err
			})
		}
	}
	child := func() error {
		v, err := setupInChild(ctx, setupRequest{Workload: s.p.name, Seed: s.cfg.seed, Small: s.cfg.small})
		if err != nil {
			return err
		}
		s.t.setup = append(s.t.setup, v)
		return s.g.tick()
	}
	steps := []func() error{func() error { return s.evaluate(ctx) }}
	for i := 1; i < setupReps; i++ {
		steps = append(steps, child)
		if i == 1 {
			steps = append(steps, later...)
		}
	}
	return steps
}

// evaluate runs the workload's cold evaluation — for calibrate-fit its
// fits first — and leaves the database in s.db and a warm pass over it
// in s.warm.
func (s *session) evaluate(ctx context.Context) error {
	switch {
	case len(s.p.pairs) > 0:
		return s.fitAndEvaluate(ctx)
	case s.p.fleetWorkers > 0:
		return s.fleetCold(ctx)
	default:
		return s.serialEval(ctx, s.env.machines, s.p.catalog.ByName)
	}
}

// round runs the short phases once over the last cold evaluation. The
// untraced run makes a batch of each — warm passes, publishes and, where
// the workload has no fits of its own, canary refits — whose mean per
// call is one sample: a batch spans many garbage collections, so the
// sample does not hinge on whether one fell inside it. A query burst
// follows the publishes, and calibrate-fit adds one more cold pass. The
// traced run makes one call of each.
func (s *session) round(ctx context.Context) error {
	reps := func(n int) int {
		if s.rec != nil {
			return 1
		}
		return n
	}
	if s.cold != nil {
		secs, err := s.cold()
		if err != nil {
			return err
		}
		s.t.eval = append(s.t.eval, secs)
	}
	if err := s.batch(&s.t.warm, reps(s.p.warmReps), s.warm); err != nil {
		return err
	}
	if err := s.publishAndQuery(ctx, reps(s.p.publishReps), reps(queryBursts)); err != nil {
		return err
	}
	if len(s.p.pairs) == 0 {
		return s.canaryFit(ctx, reps(s.p.fitReps))
	}
	return nil
}

// batch calls f n times back to back, appends the mean seconds per call
// to samples and reads the gauge.
func (s *session) batch(samples *[]float64, n int, f func() (float64, error)) error {
	var sum float64
	for i := 0; i < n; i++ {
		secs, err := f()
		if err != nil {
			return err
		}
		sum += secs
	}
	*samples = append(*samples, sum/float64(n))
	return s.g.tick()
}

// recordingCache is the cold pass's unit cache. It never hits; it keeps
// every completed unit in memory, so the warm passes can be seeded
// without a second cold pass and without cache writes inside the cold
// pass's timing.
type recordingCache struct {
	mu   sync.Mutex
	recs []core.JournalRecord
}

func (c *recordingCache) Lookup(string, string) (core.JournalRecord, bool) {
	return core.JournalRecord{}, false
}

func (c *recordingCache) Store(rec core.JournalRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, rec)
	return nil
}

// coldPass runs one untraced cold serial pass over ms, checks it against
// the reference and returns its database, seconds and units. It runs
// the machines one at a time, as the runner would, with a gauge reading
// after each: paper-cold's pass is most of its run.
func (s *session) coldPass(ctx context.Context, ms []core.Machine) (*results.DB, float64, []core.JournalRecord, error) {
	rc := &recordingCache{}
	db := &results.DB{}
	var secs float64
	for _, m := range ms {
		runner := &core.Runner{Machines: []core.Machine{m}, Opts: s.p.opts, Only: s.p.only, Cache: rc}
		start := time.Now()
		if _, err := runner.Run(ctx, db); err != nil {
			return nil, 0, nil, fmt.Errorf("cold pass: %w", err)
		}
		secs += time.Since(start).Seconds()
		if err := s.g.tick(); err != nil {
			return nil, 0, nil, err
		}
	}
	s.attempted += len(rc.recs)
	return db, secs, rc.recs, s.checkCold(db)
}

// overhead evaluates ms cold, untraced and traced, overheadReps times.
// Each machine runs both ways back to back, which way first alternating
// from machine to machine and from pass to pass, so host drift and a
// machine's first-run costs fall on both ways alike, and each run starts
// from a collected heap. The overhead compares the summed times of the
// two ways. Both must reproduce the reference. The recorder keeps the
// last traced pass, whose database and units it returns.
func (s *session) overhead(ctx context.Context, ms []core.Machine) (*results.DB, []core.JournalRecord, error) {
	var (
		secs [2]float64 // untraced, traced
		db   *results.DB
		recs []core.JournalRecord
	)
	for r := 0; r < s.p.overheadReps; r++ {
		s.rec.eval = newEvalRec()
		dbs := [2]*results.DB{{}, {}}
		rcs := [2]*recordingCache{{}, {}}
		for i, m := range ms {
			for k := 0; k < 2; k++ {
				tr := (i + k + r) % 2
				runner := &core.Runner{Machines: []core.Machine{m}, Opts: s.p.opts, Only: s.p.only, Cache: rcs[tr]}
				if tr == 1 {
					runner.Machines, runner.Events = s.rec.eval.wrap(runner.Machines), s.rec.eval
				}
				runtime.GC()
				start := time.Now()
				if _, err := runner.Run(ctx, dbs[tr]); err != nil {
					return nil, nil, fmt.Errorf("cold pass: %w", err)
				}
				secs[tr] += time.Since(start).Seconds()
			}
		}
		if err := s.checkCold(dbs[0]); err != nil {
			return nil, nil, err
		}
		if err := s.checkSame("traced cold pass", dbs[1]); err != nil {
			return nil, nil, err
		}
		s.attempted += len(rcs[0].recs) + len(rcs[1].recs)
		db, recs = dbs[1], rcs[1].recs
	}
	s.rec.overhead = (secs[1] - secs[0]) / secs[0]
	return db, recs, nil
}

// serialEval evaluates ms cold in process — side by side with a traced
// twin in the traced run — and seeds a unit cache from the cold units
// for the warm passes, which must reproduce the cold database and may
// not miss.
func (s *session) serialEval(ctx context.Context, ms []core.Machine, resolve func(string) (machines.Profile, bool)) error {
	var (
		recs []core.JournalRecord
		err  error
	)
	if s.rec != nil {
		s.db, recs, err = s.overhead(ctx, ms)
	} else {
		var secs float64
		s.db, secs, recs, err = s.coldPass(ctx, ms)
		s.t.eval = append(s.t.eval, secs)
	}
	if err != nil {
		return err
	}
	cfg := unitcache.Config{Resolve: resolve}
	if s.rec != nil {
		cfg.Obs = s.rec.cache
	}
	c, err := unitcache.Open(s.scratch("cache"), s.p.opts, cfg)
	if err != nil {
		return err
	}
	uc := s.timed(c)
	for _, r := range recs {
		if err := uc.Store(r); err != nil {
			return fmt.Errorf("seed unit cache: %w", err)
		}
	}
	s.warm = func() (float64, error) {
		before := c.Stats().Misses
		runner := &core.Runner{Machines: ms, Opts: s.p.opts, Only: s.p.only, Cache: uc}
		warm := &results.DB{}
		start := time.Now()
		if _, err := runner.Run(ctx, warm); err != nil {
			return 0, fmt.Errorf("warm pass: %w", err)
		}
		secs := time.Since(start).Seconds()
		s.attempted += len(recs)
		if n := c.Stats().Misses - before; n != 0 {
			return 0, fmt.Errorf("warm pass missed %d units", n)
		}
		return secs, s.checkSame("warm pass", warm)
	}
	if len(s.p.pairs) > 0 && s.rec == nil {
		s.cold = func() (float64, error) {
			_, secs, _, err := s.coldPass(ctx, ms)
			return secs, err
		}
	}
	return nil
}

// fleetCold runs one cold fleet pass with a fresh unit cache and
// journal; its warm passes run over the same cache, each with a fresh
// journal. All must reproduce the serial reference; a warm pass may
// neither miss nor start a worker.
func (s *session) fleetCold(ctx context.Context) error {
	cacheDir := s.scratch("cache")
	db, secs, units, err := s.fleetPass(ctx, cacheDir, true)
	if err != nil {
		return err
	}
	if err := s.g.tick(); err != nil {
		return err
	}
	s.t.eval = append(s.t.eval, secs)
	s.attempted += units
	s.db = db
	s.warm = func() (float64, error) {
		_, secs, units, err := s.fleetPass(ctx, cacheDir, false)
		s.attempted += units
		return secs, err
	}
	return nil
}

func (s *session) fleetPass(ctx context.Context, cacheDir string, cold bool) (*results.DB, float64, int, error) {
	f, err := os.Create(s.scratch("journal"))
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	jw, err := core.NewJournalWriter(f)
	if err != nil {
		return nil, 0, 0, err
	}
	cfg := unitcache.Config{Resolve: s.p.catalog.ByName}
	if s.rec != nil {
		cfg.Obs = s.rec.cache
	}
	cache, err := unitcache.Open(cacheDir, s.p.opts, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	fr := newFleetRec()
	coord := &fleet.Coordinator{
		Machines: profileNames(s.p.profiles), Catalog: s.p.catalog,
		Opts: s.p.opts, Only: s.p.only, Workers: s.p.fleetWorkers,
		Journal: jw, Cache: s.timed(cache), Obs: fr, Events: fr,
	}
	db := &results.DB{}
	start := time.Now()
	if _, err := coord.Run(ctx, db); err != nil {
		return nil, 0, 0, fmt.Errorf("fleet pass: %w", err)
	}
	secs := time.Since(start).Seconds()
	if err := s.checkSame("fleet pass", db); err != nil {
		return nil, 0, 0, err
	}
	st := cache.Stats()
	started := fr.workersStarted()
	if !cold && (st.Misses != 0 || started != 0) {
		return nil, 0, 0, fmt.Errorf("warm fleet pass missed %d units and started %d workers", st.Misses, started)
	}
	if cold && s.rec != nil {
		s.rec.fleet = fr
		if err := s.rec.journal(f.Name(), jw.BytesWritten()); err != nil {
			return nil, 0, 0, err
		}
	}
	return db, secs, int(st.Hits + st.Misses), nil
}

// fitAndEvaluate is calibrate-fit's evaluation: fit every pair, then
// evaluate the fitted profiles — renamed to their targets — cold and
// warm, as a user would after calibrating.
func (s *session) fitAndEvaluate(ctx context.Context) error {
	ms := make([]core.Machine, len(s.p.pairs))
	byName := make(map[string]machines.Profile, len(s.p.pairs))
	for i := range s.p.pairs {
		p, err := s.fitPair(ctx, i)
		if err != nil {
			return err
		}
		if ms[i], err = build(p, s.rec); err != nil {
			return err
		}
		byName[p.Name] = p
	}
	resolve := func(name string) (machines.Profile, bool) {
		p, ok := byName[name]
		return p, ok
	}
	return s.serialEval(ctx, ms, resolve)
}

// fitPair fits calibrate-fit's pair i and returns the fitted profile
// named after its target. A fit round is the pairs' fits in order; its
// last fit records the round's fit_s, the sum of its fits, and checks
// the round against the first.
func (s *session) fitPair(ctx context.Context, i int) (machines.Profile, error) {
	if i == 0 {
		s.fitting = fitRound{}
	}
	pr := s.p.pairs[i]
	start := time.Now()
	res, err := s.fit(ctx, pr.base, s.env.targets[i], nil)
	if err != nil {
		return machines.Profile{}, fmt.Errorf("fit %s -> %s: %w", pr.base.Name, pr.target.Name, err)
	}
	r := &s.fitting
	r.secs += time.Since(start).Seconds()
	if err := s.g.tick(); err != nil {
		return machines.Profile{}, err
	}
	r.evals = append(r.evals, res.Evals)
	r.worst = max(r.worst, worstErr(res))
	s.attempted += len(res.Params)
	if i == len(s.p.pairs)-1 {
		s.t.fit = append(s.t.fit, r.secs)
		if err := s.checkFits(r.evals, r.worst); err != nil {
			return machines.Profile{}, err
		}
	}
	p := res.Profile
	p.Name = pr.target.Name
	return p, nil
}

// canaryFit refits canaryBase to the run's own canaryTarget numbers on
// the latency parameters, n times: the calibrate-against-a-run flow on
// the database just produced.
func (s *session) canaryFit(ctx context.Context, n int) error {
	base, ok := s.p.catalog.ByName(canaryBase)
	if !ok {
		return fmt.Errorf("no %s profile", canaryBase)
	}
	target, err := calibrate.FromDB(s.db, canaryTarget)
	if err != nil {
		return err
	}
	return s.batch(&s.t.fit, n, func() (float64, error) {
		start := time.Now()
		res, err := s.fit(ctx, base, target, &s.p.opts)
		if err != nil {
			return 0, fmt.Errorf("canary fit: %w", err)
		}
		secs := time.Since(start).Seconds()
		s.attempted += len(res.Params)
		return secs, s.checkFits([]int{res.Evals}, worstErr(res))
	})
}

// fit runs one calibration and fails unless every parameter converged.
func (s *session) fit(ctx context.Context, base machines.Profile, target calibrate.Target, run *core.Options) (*calibrate.Result, error) {
	opts := calibrate.Options{Workers: parallelism(), Params: s.p.fitParams, Run: run}
	if s.rec != nil {
		opts.Events = s.rec.fit
	}
	res, err := calibrate.Calibrate(ctx, base, target, opts)
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		var bad []string
		for _, p := range res.Params {
			if !p.Converged {
				bad = append(bad, p.Param)
			}
		}
		return nil, fmt.Errorf("parameters did not converge: %s", strings.Join(bad, ", "))
	}
	if s.rec != nil {
		s.rec.fitted(res)
	}
	return res, nil
}

func worstErr(res *calibrate.Result) float64 {
	var w float64
	for _, p := range res.Params {
		w = max(w, p.RelErr)
	}
	return w
}

// checkFits fails unless a fit round repeats the first round's
// evaluation counts and worst error exactly: the fitter is
// deterministic.
func (s *session) checkFits(evals []int, worst float64) error {
	if s.evals == nil {
		s.evals, s.fitErr = evals, worst
		return nil
	}
	if !slices.Equal(evals, s.evals) || worst != s.fitErr {
		return fmt.Errorf("fit round took %v evaluations with worst error %g; the first took %v with %g",
			evals, worst, s.evals, s.fitErr)
	}
	return nil
}

// publishAndQuery publishes s.db n times, each into a fresh store
// through its own ingest daemon, then runs bursts query bursts against
// the last store, each with a fresh server.
func (s *session) publishAndQuery(ctx context.Context, n, bursts int) error {
	fp, err := store.Fingerprint(s.p.opts)
	if err != nil {
		return err
	}
	m := store.Manifest{Label: s.p.name, Machines: s.db.Machines(), Options: fp, CodeVersion: store.CodeVersion()}
	var (
		dir    string
		stored store.Manifest
	)
	err = s.batch(&s.t.publish, n, func() (float64, error) {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
		}
		dir = s.scratch("store")
		secs, got, err := publish(ctx, dir, m, s.db)
		s.attempted++
		stored = got
		return secs, err
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.cfg.seed))
	for i := 0; i < bursts; i++ {
		b, err := queryBurst(ctx, dir, stored, s.db, s.p.only, rng)
		if b != nil {
			s.attempted += b.requests
		}
		if err != nil {
			return err
		}
		s.t.p50 = append(s.t.p50, percentile(b.lat, 50))
		s.t.p99 = append(s.t.p99, percentile(b.lat, 99))
		if s.rec != nil {
			s.rec.store = b
		}
		if err := s.g.tick(); err != nil {
			return err
		}
	}
	return nil
}

// timed wraps c in the traced run's unit-cache timer.
func (s *session) timed(c core.UnitCache) core.UnitCache {
	if s.rec == nil {
		return c
	}
	return timedCache{UnitCache: c, rec: s.rec.cache}
}

func (s *session) scratch(kind string) string {
	s.next++
	return filepath.Join(s.cfg.dir, fmt.Sprintf("%s-%d", kind, s.next))
}

// checkCold fails unless db is the reference database; without a
// pinned reference the first cold pass becomes it.
func (s *session) checkCold(db *results.DB) error {
	if s.refHash == "" {
		h, err := hashDB(db)
		s.refHash = h
		return err
	}
	return s.checkSame("cold pass", db)
}

func (s *session) checkSame(what string, db *results.DB) error {
	h, err := hashDB(db)
	if err != nil {
		return err
	}
	if h != s.refHash {
		return fmt.Errorf("%s database hashes to %.12s, want %.12s", what, h, s.refHash)
	}
	return nil
}

func hashDB(db *results.DB) (string, error) {
	_, h, err := store.EncodeDB(db)
	return h, err
}

func profileNames(ps []machines.Profile) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// accuracy compares db with the paper's published numbers through the
// public compare API: the mean Spearman rank correlation over the
// shared benchmarks, and the mean over them of |ln MedianRatio|. The
// mean, not the median: the simulator inverts most latencies from the
// paper exactly, so on the latency-only workloads the median reads 0.
func accuracy(db *results.DB) (rank, ratioErr float64, err error) {
	comps := compare.Compare(compare.Paper(), db)
	rank, _, ranked := compare.Summary(comps, 0.6)
	var sum float64
	n := 0
	for _, c := range comps {
		if c.MedianRatio > 0 {
			sum += math.Abs(math.Log(c.MedianRatio))
			n++
		}
	}
	if ranked == 0 || n == 0 {
		return 0, 0, errors.New("no benchmark in common with the paper")
	}
	return rank, sum / float64(n), nil
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is stats.Percentile with an empty sample reading 0; the
// metric checks reject a zero end-to-end value.
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// peakRSSMB is the peak resident set of this process plus that of its
// largest child (fleet workers and set-up children), in MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &self) != nil || syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) != nil {
		return 0
	}
	return float64(self.Maxrss+kids.Maxrss) / 1024 // Linux reports KiB
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
