package lmbench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/paper"
	istore "repro/internal/store"
	"repro/internal/unitcache"
)

// Bench is a configured benchmark run, assembled by New from Options.
// The zero configuration is not runnable — at least one machine is
// required — but every other knob has the paper's default.
type Bench struct {
	machines       []Machine
	opts           Options
	sinks          core.MultiSink
	only           []string
	extended       bool
	timeout        time.Duration
	retries        int
	maxRSD         float64
	qualityRetries int
	journalPath    string
	fleetWorkers   int
	fleetConnect   []string
	storeDir       string
	publishAddr    string
	publishRetries int
	runLabel       string
	sweepMode      SweepMode
	cacheDir       string
	cacheReadOnly  bool
	cacheMaxBytes  int64
	metrics        *Registry
	catalog        *machines.Catalog
	calibTarget    *calibrate.Target
	optsSet        bool
	errs           []error
}

// Option configures a Bench; see the With* constructors.
type Option func(*Bench)

// New assembles a benchmark run from options:
//
//	rep, err := lmbench.New(
//		lmbench.WithMachine(m),
//		lmbench.WithOptions(lmbench.Options{}),
//		lmbench.WithSink(lmbench.NewTextSink(os.Stderr)),
//	).Run(ctx)
//
// is the builder form of Run. Add WithFleet(n) to execute across n
// worker processes, WithJournal(path) to make the run resumable, and
// WithMachine repeatedly to benchmark several machines into one
// database.
func New(options ...Option) *Bench {
	b := &Bench{}
	for _, o := range options {
		o(b)
	}
	return b
}

// WithMachine adds one benchmark target. Repeat to run several
// machines; results merge in the order given.
func WithMachine(m Machine) Option {
	return func(b *Bench) { b.machines = append(b.machines, m) }
}

// WithOptions sets harness settings and workload sizes (the zero
// value selects the paper's defaults).
func WithOptions(o Options) Option {
	return func(b *Bench) { b.opts, b.optsSet = o, true }
}

// WithSink adds one event sink. Repeat to fan the stream out; every
// sink sees every event. A sink with a SetPlan(machine, groups) method
// (Progress) is told each machine's experiment-group count before the
// run starts.
func WithSink(s EventSink) Option {
	return func(b *Bench) {
		if s != nil {
			b.sinks = append(b.sinks, s)
		}
	}
}

// WithOnly restricts the run to these experiment IDs.
func WithOnly(ids ...string) Option {
	return func(b *Bench) { b.only = append(b.only, ids...) }
}

// WithExtended adds the §7 future-work experiments; see Extensions.
func WithExtended() Option {
	return func(b *Bench) { b.extended = true }
}

// WithTimeout bounds each experiment attempt.
func WithTimeout(d time.Duration) Option {
	return func(b *Bench) { b.timeout = d }
}

// WithRetries re-runs a failed experiment up to n times with doubling
// backoff (100ms first) before giving up.
func WithRetries(n int) Option {
	return func(b *Bench) { b.retries = n }
}

// WithMaxRSD enables the measurement quality gate: results whose
// relative standard deviation exceeds frac are re-measured up to
// retries times (0 selects the default of 2), then accepted and
// flagged.
func WithMaxRSD(frac float64, retries int) Option {
	return func(b *Bench) { b.maxRSD, b.qualityRetries = frac, retries }
}

// WithJournal makes the run crash-safe and resumable through the file
// at path: every completed experiment appends one record, synced as
// written. If the file already holds records from an interrupted run,
// they are replayed instead of re-executed (a torn final record is
// truncated), and the run keeps journaling to the same file — so a
// resumed run that crashes again is itself resumable. In-process and
// fleet runs write the identical record sequence and can resume one
// another's journals.
func WithJournal(path string) Option {
	return func(b *Bench) { b.journalPath = path }
}

// WithFleet executes the run across n worker processes — re-execs of
// the current binary, which is why main must call MaybeChild first.
// Fleet runs support simulated machines only (workers rebuild them
// from their profiles) and produce a database byte-identical to the
// serial run. n = 0 runs in process; a negative n is refused with a
// *ConfigError. See also WithFleetConnect.
func WithFleet(n int) Option {
	return func(b *Bench) { b.fleetWorkers = n }
}

// WithFleetConnect adds remote worker daemons (processes running
// fleet serve mode, e.g. `lmbench -fleet-listen addr`) to the pool.
// Implies fleet execution even with WithFleet(0).
func WithFleetConnect(addrs ...string) Option {
	return func(b *Bench) { b.fleetConnect = append(b.fleetConnect, addrs...) }
}

// WithStore publishes the finished run into the results store rooted
// at dir (created if needed). The run is keyed by its content — see
// Report.RunID — so re-running an identical deterministic benchmark
// is an idempotent no-op on the store.
func WithStore(dir string) Option {
	return func(b *Bench) { b.storeDir = dir }
}

// WithPublish streams the finished run to a results-store daemon at
// addr (a process running `lmbench -store-listen`), over the same
// record framing the fleet protocol uses.
func WithPublish(addr string) Option {
	return func(b *Bench) { b.publishAddr = addr }
}

// WithPublishRetries caps how many times a failed publish is retried
// with doubling backoff (0 = the default of 4, negative disables).
// Retrying is always safe: runs are content-addressed, so a publish
// that half-landed before the connection died is finished idempotently
// by the next attempt.
func WithPublishRetries(n int) Option {
	return func(b *Bench) { b.publishRetries = n }
}

// WithUnitCache enables incremental evaluation through the unit cache
// rooted at dir (created if needed): every completed work unit's
// result fragment is persisted under a key derived from the machine
// profile, experiment group, options fingerprint and code version, and
// later runs with the same key reuse the fragment instead of
// re-executing — the database comes out byte-identical either way.
// Journal resume takes precedence over the cache for units present in
// the journal.
func WithUnitCache(dir string) Option {
	return func(b *Bench) { b.cacheDir = dir }
}

// WithUnitCacheReadOnly makes the cache lookup-only: hits are served
// but misses are not stored and nothing on disk is touched. Useful for
// shared or CI-seeded caches.
func WithUnitCacheReadOnly() Option {
	return func(b *Bench) { b.cacheReadOnly = true }
}

// WithUnitCacheLimit caps the cache directory at maxBytes; after each
// store the least-recently-used fragments are evicted until the cache
// fits (0 = unlimited).
func WithUnitCacheLimit(maxBytes int64) Option {
	return func(b *Bench) { b.cacheMaxBytes = maxBytes }
}

// WithMetrics exports the run's live state into reg, for a /metrics
// endpoint (see Server): the suite's event and harness metrics, plus
// the metric families of every part the run wires — the journal, the
// unit cache, the fleet, publish retries and fault-injected machines.
// Every family counts this run alone, from its own events, attempt
// probes and parts; the harness families see in-process attempts only,
// since probes never cross a process boundary. Metrics stay out of
// band: they never touch a timed interval or the results database.
//
// The suite's event and harness families are registered when New
// applies the option, so a server started before Run already exposes
// them; the adaptive planner's register with the first planned sweep,
// the rest as Run wires their parts.
func WithMetrics(reg *Registry) Option {
	return func(b *Bench) {
		b.metrics = reg
		b.sinks = append(b.sinks, obs.NewMetricsSink(reg))
	}
}

// WithSweepMode selects how point sweeps cover their grids:
// SweepExhaustive (the default) measures every point; SweepAdaptive
// runs the variance-aware planner, measuring a coarse pass plus
// refinement around detected plateau transitions and interpolating
// the rest. The mode rides the options fingerprint, so it composes
// with WithOptions in either order and the two modes never share run
// IDs or unit-cache keys.
func WithSweepMode(mode SweepMode) Option {
	return func(b *Bench) { b.sweepMode = mode }
}

// WithProfileFile extends the run's machine catalog with profiles
// loaded from path — one canonical profile JSON file, or a directory
// of them. Repeat for several paths; later loads shadow earlier names.
// The catalog is what resolves machine names everywhere the run needs
// one: fleet unit dispatch (non-built-in profiles ship inline on the
// unit frame) and unit-cache keys (a profile's fingerprint keys its
// fragments). Load failures surface from Run.
func WithProfileFile(path string) Option {
	return func(b *Bench) {
		if b.catalog == nil {
			b.catalog = machines.Default()
		}
		if err := b.catalog.LoadPath(path); err != nil {
			b.errs = append(b.errs, err)
		}
	}
}

// WithCalibrateTarget turns the run into a calibration: instead of
// benchmarking, Run fits the single configured simulated machine's
// profile until the suite reproduces the target's measurements, and
// returns the fitted profile in Report.Calibration (the Report's DB is
// the fit's final verification run). Requires exactly one WithMachine,
// and it must be a simulated machine. WithOptions sets the candidate
// runs' suite options (default: the fitter's fast settings),
// WithSweepMode their sweep mode (default: adaptive),
// WithMaxRSD their quality gate (its retries must stay zero),
// WithUnitCache the per-candidate cache, and sinks see the calibration
// event stream. Run refuses every option the calibrator would ignore —
// the cache's read-only mode and limit, fleet execution, journal,
// store, publish, WithOnly, WithExtended, timeout and retries — with a
// *ConfigError.
func WithCalibrateTarget(t CalibrationTarget) Option {
	return func(b *Bench) { b.calibTarget = &t }
}

// WithRunLabel tags the run with a human-readable label
// ("nightly-2026-08-08"). Labels are descriptive, not part of the run
// key, and stored runs can be queried by them.
func WithRunLabel(label string) Option {
	return func(b *Bench) { b.runLabel = label }
}

// CacheStats is a snapshot of unit-cache traffic counters; its String
// form is the CLI's stats line.
type CacheStats = unitcache.Stats

// Report is the outcome of a Bench run: the merged results database
// and, per machine, the experiments its backend could not support.
type Report struct {
	DB *DB
	// Skipped maps machine name to skipped experiment IDs.
	Skipped map[string][]string
	// RunID is the content-addressed key the run stores and publishes
	// under: the hash of (machines, options fingerprint, code version,
	// content hash of DB). Two identical deterministic runs share it.
	RunID string
	// Cache holds the unit-cache traffic counters when WithUnitCache
	// was configured; nil otherwise. A fully-warm run shows
	// Misses == 0.
	Cache *CacheStats
	// Calibration holds the fitted profile and per-parameter trace
	// when the run was a WithCalibrateTarget calibration; nil on
	// normal benchmark runs.
	Calibration *CalibrationResult

	manifest istore.Manifest
}

// Render writes every populated table and figure in the paper's
// presentation format.
func (r *Report) Render(w io.Writer) error { return paper.RenderAll(w, r.DB) }

// RenderTable writes one table ("table2" ... "table17").
func (r *Report) RenderTable(w io.Writer, id string) error {
	return paper.RenderTable(w, id, r.DB)
}

// Publish stores the run in s and returns the stored manifest. It is
// the programmatic form of WithStore, for callers that decide after
// seeing the report; publishing the same run twice is idempotent.
func (r *Report) Publish(ctx context.Context, s *Store) (Manifest, error) {
	if err := ctx.Err(); err != nil {
		return Manifest{}, err
	}
	return s.Put(r.manifest, r.DB)
}

// ConfigError is Run's refusal of a configuration that cannot
// execute, returned before anything runs: two features that do not
// compose, or a setting no run accepts.
type ConfigError struct {
	// Feature names the offending setting, e.g. "WithOnly" or "chaos"
	// (a fault-injected machine among the WithMachine targets).
	Feature string
	// With names the feature it does not compose with; empty when
	// Feature is invalid on its own.
	With string
	// Reason says why.
	Reason string
}

func (e *ConfigError) Error() string {
	if e.With == "" {
		return "lmbench: " + e.Feature + ": " + e.Reason
	}
	return "lmbench: " + e.Feature + " does not compose with " + e.With + ": " + e.Reason
}

// profiled is a machine built from a simulated profile.
type profiled interface{ Profile() machines.Profile }

// Validate refuses a configuration that cannot run, with a
// *ConfigError, an options error or an option's own error, before
// anything is opened or run. Run validates first; a caller that
// prepares files for the run (cmd/lmbench truncating a fresh journal)
// validates before touching them.
func (b *Bench) Validate() error {
	if len(b.errs) > 0 {
		return errors.Join(b.errs...)
	}
	// Fold the sweep mode into the options before anything derives
	// state from them (unit-cache keys, the fleet/runner config, the
	// manifest fingerprint), so WithSweepMode works regardless of its
	// ordering relative to WithOptions.
	if b.sweepMode != "" {
		b.opts.SweepMode = b.sweepMode
	}
	if len(b.machines) == 0 {
		return errors.New("lmbench: no machines configured (use WithMachine)")
	}
	if _, err := b.opts.Normalize(); err != nil {
		return err
	}
	for _, id := range b.only {
		if _, ok := core.ExperimentByID(id); !ok {
			return &ConfigError{Feature: "WithOnly", Reason: fmt.Sprintf("unknown experiment %q", id)}
		}
	}
	if b.fleetWorkers < 0 {
		return &ConfigError{Feature: "WithFleet", Reason: fmt.Sprintf("negative worker count %d", b.fleetWorkers)}
	}
	if b.calibTarget != nil {
		if len(b.machines) != 1 {
			return &ConfigError{Feature: "WithCalibrateTarget", Reason: "calibration takes exactly one machine (the base profile)"}
		}
		if _, ok := b.machines[0].(profiled); !ok {
			return &ConfigError{Feature: "WithCalibrateTarget",
				Reason: fmt.Sprintf("calibration requires a simulated machine; %q carries no profile", b.machines[0].Name())}
		}
		// The calibrator runs its own candidate suites from the options
		// runCalibration passes it; refuse every other setting rather
		// than drop it.
		for _, o := range []struct {
			set  bool
			with string
		}{
			{b.cacheReadOnly, "WithUnitCacheReadOnly"},
			{b.cacheMaxBytes != 0, "WithUnitCacheLimit"},
			{b.fleetWorkers != 0, "WithFleet"},
			{len(b.fleetConnect) > 0, "WithFleetConnect"},
			{b.journalPath != "", "WithJournal"},
			{b.storeDir != "", "WithStore"},
			{b.publishAddr != "", "WithPublish"},
			{len(b.only) > 0, "WithOnly"},
			{b.extended, "WithExtended"},
			{b.timeout != 0, "WithTimeout"},
			{b.retries != 0, "WithRetries"},
			{b.qualityRetries != 0, "WithMaxRSD's retries"},
		} {
			if o.set {
				return &ConfigError{Feature: "WithCalibrateTarget", With: o.with,
					Reason: "the calibrator's candidate runs would silently ignore it"}
			}
		}
	}
	if len(b.chaotic()) == 0 {
		return nil
	}
	switch {
	case b.fleet():
		return &ConfigError{Feature: "chaos", With: "fleet execution", Reason: "fault wrappers cannot cross a process boundary"}
	case b.cacheDir != "":
		return &ConfigError{Feature: "chaos", With: "the unit cache", Reason: "fault-perturbed results must never seed the cache"}
	case b.opts.SweepMode == SweepAdaptive:
		return &ConfigError{Feature: "chaos", With: "adaptive sweeps", Reason: "injected noise would steer the planner's transition detection"}
	}
	return nil
}

// chaotic returns the fault-injected machines among the targets.
func (b *Bench) chaotic() []*faults.Machine {
	var fs []*faults.Machine
	for _, m := range b.machines {
		if f, ok := m.(*faults.Machine); ok {
			fs = append(fs, f)
		}
	}
	return fs
}

func (b *Bench) fleet() bool { return b.fleetWorkers > 0 || len(b.fleetConnect) > 0 }

// Run executes the configured benchmark and returns its Report. The
// context cancels or deadlines the run between measurement batches. A
// configuration that cannot execute is refused with a *ConfigError
// (or an options error) before anything runs.
func (b *Bench) Run(ctx context.Context) (*Report, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if b.calibTarget != nil {
		return b.runCalibration(ctx)
	}
	var only map[string]bool
	if len(b.only) > 0 {
		only = map[string]bool{}
		for _, id := range b.only {
			only[id] = true
		}
	}
	exps := core.Experiments()
	if b.extended {
		exps = append(exps, core.Extensions()...)
	}
	groups := len(core.GroupExperiments(exps, only))
	for _, s := range b.sinks {
		if p, ok := s.(interface{ SetPlan(string, int) }); ok {
			for _, m := range b.machines {
				p.SetPlan(m.Name(), groups)
			}
		}
	}
	journal, replay, closeJournal, err := openJournalPath(b.journalPath)
	if err != nil {
		return nil, err
	}
	defer closeJournal()

	var fleetObs fleet.Observer
	var onPublishRetry func(int, error)
	cfg := unitcache.Config{
		ReadOnly: b.cacheReadOnly,
		MaxBytes: b.cacheMaxBytes,
		MaxRSD:   b.maxRSD, QualityRetries: b.qualityRetries,
	}
	if b.metrics != nil {
		fleetObs, cfg.Obs, onPublishRetry = b.registerMetrics(journal)
	}
	var cache *unitcache.Cache
	if b.cacheDir != "" {
		if cat := b.catalog; cat != nil {
			cfg.Resolve = cat.ByName
		}
		cache, err = unitcache.Open(b.cacheDir, b.opts, cfg)
		if err != nil {
			return nil, err
		}
	}

	// The runner and the fleet coordinator run one executor, in process
	// and across worker processes. A nil *unitcache.Cache must not
	// reach their UnitCache fields, where it would be non-nil.
	var uc core.UnitCache
	if cache != nil {
		uc = cache
	}
	var exec interface {
		Run(context.Context, *DB) (map[string][]string, error)
	}
	if b.fleet() {
		names, err := fleet.MachineNamesIn(b.catalog, b.machines)
		if err != nil {
			return nil, err
		}
		exec = &fleet.Coordinator{
			Machines: names,
			Catalog:  b.catalog,
			Opts:     b.opts,
			Only:     only,
			Extended: b.extended,
			Events:   b.sinks,
			Workers:  b.fleetWorkers,
			Connect:  b.fleetConnect,
			Timeout:  b.timeout, Retries: b.retries,
			MaxRSD: b.maxRSD, QualityRetries: b.qualityRetries,
			Journal: journal, Resume: replay,
			Cache: uc,
			Obs:   fleetObs,
		}
	} else {
		exec = &core.Runner{
			Machines: b.machines,
			Opts:     b.opts,
			Events:   b.sinks,
			Only:     only,
			Extended: b.extended,
			Timeout:  b.timeout, Retries: b.retries,
			MaxRSD: b.maxRSD, QualityRetries: b.qualityRetries,
			Journal: journal, Resume: replay,
			Cache: uc,
		}
	}
	db := &DB{}
	skipped, err := exec.Run(ctx, db)
	if err != nil {
		return nil, err
	}
	rep := &Report{DB: db, Skipped: skipped}
	if cache != nil {
		st := cache.Stats()
		rep.Cache = &st
	}
	if err := rep.fillManifest(b); err != nil {
		return nil, err
	}
	if b.storeDir != "" {
		s, err := istore.Open(b.storeDir)
		if err != nil {
			return nil, err
		}
		m, err := s.Put(rep.manifest, db)
		if err != nil {
			return nil, err
		}
		rep.RunID = m.RunID
	}
	if b.publishAddr != "" {
		m, err := istore.PublishWith(ctx, b.publishAddr, rep.manifest, db,
			istore.PublishOptions{Retries: b.publishRetries, OnRetry: onPublishRetry})
		if err != nil {
			return nil, fmt.Errorf("lmbench: publish to %s: %w", b.publishAddr, err)
		}
		rep.RunID = m.RunID
	}
	return rep, nil
}

// registerMetrics exports the metric families of the parts this run
// wires beyond the suite itself, and returns the observers the fleet
// and the unit cache report to and the publish's retry hook (nil for a
// part the run does not use).
func (b *Bench) registerMetrics(journal *core.JournalWriter) (fo fleet.Observer, co unitcache.Observer, onPublishRetry func(int, error)) {
	reg := b.metrics
	if b.fleet() {
		fo = obs.NewFleetMetrics(reg)
	}
	if b.cacheDir != "" {
		co = obs.NewCacheMetrics(reg)
	}
	if b.publishAddr != "" {
		retries := reg.Counter("lmbench_publish_retries_total",
			"Publish attempts retried after a transport failure.")
		onPublishRetry = func(int, error) { retries.Inc() }
	}
	if journal != nil {
		obs.RegisterJournal(reg, journal)
	}
	if injected := b.chaotic(); len(injected) > 0 {
		obs.RegisterFaults(reg, func() (calls, errors, stalls, spikes int64) {
			for _, f := range injected {
				st := f.Stats()
				calls += int64(st.Calls)
				errors += int64(st.Errors)
				stalls += int64(st.Stalls)
				spikes += int64(st.Spikes)
			}
			return
		})
	}
	return fo, co, onPublishRetry
}

// runCalibration is Run's WithCalibrateTarget branch: fit the single
// configured simulated machine's profile to the target and report the
// verification run as the database.
func (b *Bench) runCalibration(ctx context.Context) (*Report, error) {
	opts := calibrate.Options{MaxRSD: b.maxRSD, CacheDir: b.cacheDir, Events: b.sinks}
	switch {
	case b.optsSet:
		runOpts := b.opts
		opts.Run = &runOpts
	case b.sweepMode != "":
		// A set sweep mode reaches the candidate runs on the
		// calibrator's own fast base.
		runOpts := core.FastOptions()
		runOpts.SweepMode = b.sweepMode
		opts.Run = &runOpts
	}
	res, err := calibrate.Calibrate(ctx, b.machines[0].(profiled).Profile(), *b.calibTarget, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{DB: res.DB, Skipped: map[string][]string{}, Calibration: res}
	if err := rep.fillManifest(b); err != nil {
		return nil, err
	}
	return rep, nil
}

// fillManifest derives the run's store manifest — and from it the
// report's RunID — from what was just run: the machine names in run
// order, the normalized-options fingerprint, and the code version.
func (r *Report) fillManifest(b *Bench) error {
	names := make([]string, len(b.machines))
	for i, m := range b.machines {
		names[i] = m.Name()
	}
	fp, err := istore.Fingerprint(b.opts)
	if err != nil {
		return err
	}
	r.manifest = istore.Manifest{
		Label:       b.runLabel,
		Machines:    names,
		Options:     fp,
		CodeVersion: istore.CodeVersion(),
	}
	hash, err := istore.ContentHash(r.DB)
	if err != nil {
		return err
	}
	r.manifest.ContentHash = hash
	r.manifest.Entries = r.DB.Len()
	r.RunID = istore.RunIDFor(r.manifest)
	return nil
}

// openJournalPath opens path with create-or-resume semantics: a new or
// empty file starts a fresh journal; one with records replays them and
// keeps appending past the last valid record.
func openJournalPath(path string) (jw *core.JournalWriter, replay *core.JournalReplay, closeF func(), err error) {
	if path == "" {
		return nil, nil, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if err != nil {
			_ = f.Close()
		}
	}()
	if replay, err = core.ReadJournal(f); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if err = f.Truncate(replay.ValidBytes); err != nil {
		return nil, nil, nil, err
	}
	if _, err = f.Seek(0, io.SeekEnd); err != nil {
		return nil, nil, nil, err
	}
	closeF = func() { _ = f.Close() }
	if replay.ValidBytes > 0 {
		return core.AppendJournalWriter(f), replay, closeF, nil
	}
	if jw, err = core.NewJournalWriter(f); err != nil {
		return nil, nil, nil, err
	}
	return jw, nil, closeF, nil
}
