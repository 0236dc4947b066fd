package core

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/timing"
)

// Experiment ties one of the paper's tables or figures to the code
// that regenerates it.
type Experiment struct {
	// ID is the experiment key, e.g. "table2" or "figure1".
	ID string
	// Title is the paper's caption.
	Title string
	// Benchmarks lists the result-database keys this experiment
	// produces (prefix match for per-medium families).
	Benchmarks []string
	// Run executes the experiment on a machine. The context carries
	// the per-experiment deadline and cancellation; drivers check it
	// between measurement batches so a cancelled run stops promptly.
	Run func(ctx context.Context, m Machine, opts Options) ([]results.Entry, error)
	// RunKey groups experiments that share one Run invocation (e.g.
	// Figure 2 and Table 10 come from the same sweep). Empty means
	// the experiment runs on its own.
	RunKey string
}

// Experiments returns the paper's evaluation, in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID: "table2", Title: "Table 2. Memory bandwidth (MB/s)",
			Benchmarks: []string{"bw_mem.bcopy_libc", "bw_mem.bcopy_unrolled", "bw_mem.read", "bw_mem.write"},
			Run:        BWMem,
		},
		{
			ID: "table3", Title: "Table 3. Pipe and local TCP bandwidth (MB/s)",
			Benchmarks: []string{"bw_ipc.pipe", "bw_ipc.tcp"},
			Run:        BWIPC,
		},
		{
			ID: "table4", Title: "Table 4. Remote TCP bandwidth (MB/s)",
			Benchmarks: []string{"bw_tcp_remote."},
			Run:        BWRemoteTCP,
		},
		{
			ID: "table5", Title: "Table 5. File vs. memory bandwidth (MB/s)",
			Benchmarks: []string{"bw_file.read", "bw_file.mmap"},
			Run:        BWFile,
		},
		{
			ID: "figure1", Title: "Figure 1. Memory latency",
			Benchmarks: []string{"lat_mem_rd"},
			Run:        CacheParams, RunKey: "mem_hier",
		},
		{
			ID: "table6", Title: "Table 6. Cache and memory latency (ns)",
			Benchmarks: []string{"cache."},
			Run:        CacheParams, RunKey: "mem_hier",
		},
		{
			ID: "table7", Title: "Table 7. Simple system call time (microseconds)",
			Benchmarks: []string{"lat_syscall"},
			Run:        LatSyscall,
		},
		{
			ID: "table8", Title: "Table 8. Signal times (microseconds)",
			Benchmarks: []string{"lat_sig.install", "lat_sig.catch"},
			Run:        LatSignal,
		},
		{
			ID: "table9", Title: "Table 9. Process creation time (milliseconds)",
			Benchmarks: []string{"lat_proc.fork", "lat_proc.exec", "lat_proc.sh"},
			Run:        LatProc,
		},
		{
			ID: "figure2", Title: "Figure 2. Context switch times",
			Benchmarks: []string{"lat_ctx"},
			Run:        CtxSweep, RunKey: "ctx",
		},
		{
			ID: "table10", Title: "Table 10. Context switch time (microseconds)",
			Benchmarks: []string{"lat_ctx.2p_0k", "lat_ctx.2p_32k", "lat_ctx.8p_0k", "lat_ctx.8p_32k"},
			Run:        CtxSweep, RunKey: "ctx",
		},
		{
			ID: "table11", Title: "Table 11. Pipe latency (microseconds)",
			Benchmarks: []string{"lat_pipe"},
			Run:        LatIPC, RunKey: "ipc",
		},
		{
			ID: "table12", Title: "Table 12. TCP latency (microseconds)",
			Benchmarks: []string{"lat_tcp", "lat_rpc_tcp"},
			Run:        LatIPC, RunKey: "ipc",
		},
		{
			ID: "table13", Title: "Table 13. UDP latency (microseconds)",
			Benchmarks: []string{"lat_udp", "lat_rpc_udp"},
			Run:        LatIPC, RunKey: "ipc",
		},
		{
			ID: "table14", Title: "Table 14. Remote latencies (microseconds)",
			Benchmarks: []string{"lat_net_remote."},
			Run:        LatRemote,
		},
		{
			ID: "table15", Title: "Table 15. TCP connect latency (microseconds)",
			Benchmarks: []string{"lat_connect"},
			Run:        LatConnect,
		},
		{
			ID: "table16", Title: "Table 16. File system latency (microseconds)",
			Benchmarks: []string{"lat_fs.create", "lat_fs.delete"},
			Run:        LatFS,
		},
		{
			ID: "table17", Title: "Table 17. SCSI I/O overhead (microseconds)",
			Benchmarks: []string{"lat_disk.scsi_overhead"},
			Run:        LatDisk,
		},
	}
}

// ExperimentByID looks up one experiment of the paper's evaluation or
// of its §7 extensions.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range append(Experiments(), Extensions()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// wallMu serializes experiments on machines whose clock reads real
// time (the host backend). Two wall-clock experiments running at once
// would perturb each other's measurements; virtual-clock machines are
// immune and run without the lock.
var wallMu sync.Mutex

// Suite runs experiments on one machine and records results.
type Suite struct {
	M    Machine
	Opts Options
	// Events receives the structured run events (started / finished /
	// retried / skipped / failed); nil discards them. TextSink restores
	// the old progress lines; JSONLSink writes a machine-readable
	// trace.
	Events EventSink
	// Only restricts the run to these experiment IDs (nil = all).
	Only map[string]bool
	// Extended adds the §7 future-work experiments (STREAM, dirty/
	// write latency, TLB, cache-to-cache).
	Extended bool
	// Experiments overrides the experiment list (nil = the registry,
	// plus Extensions when Extended is set). Used by the runner and
	// tests that inject synthetic experiments.
	Experiments []Experiment
	// Timeout bounds each experiment attempt in wall time; 0 means no
	// per-experiment deadline.
	Timeout time.Duration
	// Retries is how many extra attempts a failing experiment gets
	// before its error aborts the run. Unsupported experiments are
	// never retried; context cancellation is never retried.
	Retries int
	// RetryBackoff is the pause before the first retry, doubling each
	// further attempt (see NextBackoff); default 100ms when Retries > 0.
	// The backoff sleep selects on the run context, so a cancelled run
	// never waits out a pending backoff.
	RetryBackoff time.Duration
	// MaxRSD enables the measurement quality gate when positive. After
	// a successful attempt, the relative spread ((median - min) / min)
	// of each recorded measurement's timed batches is checked; if the
	// noisiest exceeds MaxRSD the experiment is adaptively re-measured
	// (up to QualityRetries times) and a "quality" event is emitted.
	// Accepted entries are stamped with quality.* attrs (sample count,
	// spread, outliers) so reports can flag low-confidence numbers.
	MaxRSD float64
	// QualityRetries caps re-measurements of a noisy experiment;
	// default 2 when the gate is enabled (see QualityBudget). When the
	// budget is spent the noisy result is accepted but flagged
	// (quality.flagged attr).
	QualityRetries int
	// Journal, when non-nil, receives one checksummed record per
	// completed experiment group, in unit order, as soon as the group
	// and every earlier one are done, making the run resumable after a
	// crash (see JournalWriter).
	Journal *JournalWriter
	// Resume, when non-nil, replays completed work from a previous
	// run's journal instead of re-executing it; only the remainder
	// runs. Replayed entries merge at the same point in the iteration
	// order as live execution, so a resumed database encodes
	// byte-identically to an uninterrupted run.
	Resume *JournalReplay
	// Cache, when non-nil, is the content-addressed unit cache: each
	// experiment group is looked up before execution (a hit restores
	// its entries without running anything, exactly like a journal
	// replay) and stored after it completes. Resume wins over Cache
	// when both would serve a unit — the journal is this run's own
	// ground truth. See internal/unitcache.
	Cache UnitCache
}

// Run executes the selected experiments and merges their entries into
// db. Experiments a backend does not support (ErrUnsupported) are
// skipped and reported in the returned skip list; duplicate Run
// functions (Figure 2 / Table 10 share one) execute once. A cancelled
// or deadlined ctx stops the run at the next measurement boundary.
//
// The experiment groups are the units of one executor run (see
// unitExec): on a simulated machine they run GOMAXPROCS-wide, on s.M
// and on lazily made clones, and every other machine runs them one at
// a time. Either way units are recalled from the resume journal and the
// unit cache in unit order, and each unit merges into db, the journal
// and the cache in unit order, so the database, the journal and the
// cache see exactly what a serial run gives them. A failure returns the
// error and partial database of a serial run. Run emits no machine
// events.
func (s *Suite) Run(ctx context.Context, db *results.DB) (skipped []string, err error) {
	if s.M == nil {
		return nil, errors.New("core: suite needs a machine")
	}
	byMachine, err := s.run(ctx, db, []Machine{s.M}, false)
	return byMachine[s.M.Name()], err
}

// Retry pauses: the first defaults to defaultRetryBackoff and each
// further one doubles, capped at maxRetryBackoff so a large Retries
// budget never escalates into multi-hour waits (or overflows).
const (
	defaultRetryBackoff = 100 * time.Millisecond
	maxRetryBackoff     = 30 * time.Second
)

// NextBackoff is the retry policy the suite and the fleet coordinator
// share: the pause after d, or the default first pause when d is zero.
// It doubles d, saturating at 30s.
func NextBackoff(d time.Duration) time.Duration {
	switch {
	case d <= 0:
		return defaultRetryBackoff
	case d >= maxRetryBackoff/2:
		return maxRetryBackoff
	}
	return d * 2
}

// QualityBudget is the quality gate's effective re-measurement budget,
// the one rule the suite runs by and the unit cache keys by: 0 when
// the gate is off (maxRSD <= 0), 2 when it is on and retries is zero,
// retries otherwise.
func QualityBudget(maxRSD float64, retries int) int {
	switch {
	case maxRSD <= 0:
		return 0
	case retries == 0:
		return 2
	}
	return retries
}

// runExperiment drives one experiment through the attempt/retry loop
// and the measurement quality gate, emitting lifecycle events along
// the way.
func (s *Suite) runExperiment(ctx context.Context, m Machine, sink EventSink, exp Experiment, opts Options) ([]results.Entry, error) {
	maxAttempts := 1 + s.Retries
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	backoff := min(s.RetryBackoff, maxRetryBackoff)
	if backoff <= 0 {
		backoff = NextBackoff(0)
	}
	qualityLeft := QualityBudget(s.MaxRSD, s.QualityRetries)
	// One recorder serves every attempt of this experiment: Reset keeps
	// the backing storage, so re-measurements (retries, the quality
	// gate's re-runs) record into already-grown slices instead of
	// reallocating them.
	var rec *timing.Recorder
	if s.MaxRSD > 0 {
		rec = &timing.Recorder{}
	}
	ev := func(kind EventKind, attempt int, dur time.Duration, entries int, err error, q qualitySummary, sim, sweep map[string]int64) {
		e := Event{
			Kind: kind, Time: time.Now(), Machine: m.Name(),
			Experiment: exp.ID, Title: exp.Title,
			Attempt: attempt, Duration: dur, Entries: entries,
			Sim: sim, Sweep: sweep,
		}
		if err != nil {
			e.Err = err.Error()
		}
		if q.Measurements > 0 {
			e.Spread = q.WorstSpread
			e.Samples = q.Samples
		}
		sink.Event(e)
	}
	for attempt := 1; ; attempt++ {
		ev(ExperimentStarted, attempt, 0, 0, nil, qualitySummary{}, nil, nil)
		start := time.Now()
		entries, q, sim, sweep, err := s.attempt(ctx, m, sink, exp, opts, rec, attempt)
		dur := time.Since(start)
		switch {
		case err == nil:
			noisy := q.WorstSpread > s.MaxRSD || q.Degenerate > 0
			if s.MaxRSD > 0 && q.Measurements > 0 && noisy && qualityLeft > 0 {
				// Too noisy (or degenerate — zero-baseline samples whose
				// spread is undefined): reject the measurement and try
				// again.
				qualityLeft--
				ev(ExperimentQuality, attempt, dur, len(entries), nil, q, nil, nil)
				continue
			}
			if s.MaxRSD > 0 && q.Measurements > 0 {
				stampQuality(entries, q, noisy)
			}
			ev(ExperimentFinished, attempt, dur, len(entries), nil, q, sim, sweep)
			return entries, nil
		case IsUnsupported(err):
			ev(ExperimentSkipped, attempt, dur, 0, err, qualitySummary{}, nil, nil)
			return nil, err
		case ctx.Err() != nil || attempt >= maxAttempts:
			ev(ExperimentFailed, attempt, dur, 0, err, qualitySummary{}, nil, nil)
			return nil, err
		}
		ev(ExperimentRetried, attempt, dur, 0, err, qualitySummary{}, nil, nil)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		backoff = NextBackoff(backoff)
	}
}

// attempt runs exp once under the per-experiment deadline, holding the
// wall-clock mutex when the machine measures real time and binding the
// context into the backend's blocking primitives when it can accept
// one. When the quality gate is enabled, the caller's recorder rides
// on the context (reset first, keeping its storage) and the attempt's
// sample statistics are summarized for the gate. Sinks implementing
// AttemptProber additionally get a timing.Probe installed on the
// context, so observability can see individual harness batches — out
// of band, never inside a timed interval. The attempt's ledger rides
// the context as well and fills the two returned maps for the event
// stream: on simulated machines the first carries the experiment's
// activity-counter delta (SimStatser), summed over m and the clones
// its sweeps ran on; the second carries the adaptive sweep planner's
// decision counters and stays nil for exhaustive sweeps and non-sweep
// experiments.
func (s *Suite) attempt(ctx context.Context, m Machine, sink EventSink, exp Experiment, opts Options, rec *timing.Recorder, attempt int) ([]results.Entry, qualitySummary, map[string]int64, map[string]int64, error) {
	if timing.IsRealTime(m.Clock()) {
		wallMu.Lock()
		defer wallMu.Unlock()
	}
	// Every attempt starts from pristine machine state (see Resetter):
	// results must not depend on earlier experiments, failed attempts,
	// or quality-gate re-measurements.
	if r, ok := m.(Resetter); ok {
		r.Reset()
	}
	// Always derive a per-attempt context: backends that bind it may
	// register a cancellation hook, and cancelling here guarantees the
	// hook is released with the attempt.
	var cancel context.CancelFunc
	var runCtx context.Context
	if s.Timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, s.Timeout)
	} else {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	if rec != nil {
		rec.Reset()
		runCtx = timing.WithRecorder(runCtx, rec)
	}
	if ap, ok := sink.(AttemptProber); ok {
		if p := ap.AttemptProbe(m.Name(), exp.ID, attempt); p != nil {
			runCtx = timing.WithProbe(runCtx, p)
		}
	}
	if cb, ok := m.(ContextBinder); ok {
		cb.BindContext(runCtx)
		defer cb.BindContext(context.Background())
	}
	led := &ledger{}
	runCtx = withLedger(runCtx, led)
	var simBefore map[string]int64
	ss, hasSim := m.(SimStatser)
	if hasSim {
		simBefore = ss.SimStats()
	}
	entries, err := exp.Run(runCtx, m, opts)
	var q qualitySummary
	if rec != nil && err == nil {
		q = summarizeQuality(rec)
	}
	if hasSim && err == nil {
		led.addSim(simDelta(ss.SimStats(), simBefore))
	}
	return entries, q, led.sim, led.sweep, err
}

// qualitySummary condenses the measurements of one attempt for the
// quality gate.
type qualitySummary struct {
	// Measurements is how many BenchLoop measurements the attempt
	// recorded (0 means the experiment took none — the gate abstains).
	Measurements int
	// Samples is the total number of timed batches across them.
	Samples int
	// WorstSpread is the largest relative spread observed.
	WorstSpread float64
	// Outliers counts samples beyond median + 3*MAD (MAD floored at
	// 1% of the median so a lone spike over identical samples still
	// registers); such spikes are the scheduling noise min-of-N
	// reporting absorbs, counted here so reports can see them.
	Outliers int
	// Degenerate counts measurements whose relative spread is undefined
	// because the fastest sample was zero or denormal while others were
	// not (stats.ErrZeroMedian). Such a measurement is at least as
	// suspect as a noisy one — the spread it hides may be unbounded —
	// so the gate re-measures rather than silently accepting it.
	Degenerate int
}

// summarizeQuality computes the gate statistics from an attempt's
// recorded measurements.
func summarizeQuality(rec *timing.Recorder) qualitySummary {
	var q qualitySummary
	for _, m := range rec.Measurements() {
		if len(m.Samples) == 0 {
			continue
		}
		q.Measurements++
		q.Samples += len(m.Samples)
		xs := make([]float64, len(m.Samples))
		for i, s := range m.Samples {
			xs[i] = float64(s)
		}
		if spread, err := stats.RelSpread(xs); err == nil {
			if spread > q.WorstSpread {
				q.WorstSpread = spread
			}
		} else if errors.Is(err, stats.ErrZeroMedian) {
			q.Degenerate++
		}
		med, err := stats.Median(xs)
		if err != nil {
			continue
		}
		mad, _ := stats.MAD(xs)
		if floor := 0.01 * med; mad < floor {
			mad = floor
		}
		for _, x := range xs {
			if x > med+3*mad {
				q.Outliers++
			}
		}
	}
	return q
}

// stampQuality annotates accepted entries with the attempt's sample
// statistics; flagged marks results the gate could not calm within its
// re-measurement budget.
func stampQuality(entries []results.Entry, q qualitySummary, flagged bool) {
	for i := range entries {
		if entries[i].Attrs == nil {
			entries[i].Attrs = make(map[string]string, 4)
		}
		entries[i].Attrs["quality.samples"] = strconv.Itoa(q.Samples)
		entries[i].Attrs["quality.spread"] = strconv.FormatFloat(q.WorstSpread, 'g', -1, 64)
		entries[i].Attrs["quality.outliers"] = strconv.Itoa(q.Outliers)
		if q.Degenerate > 0 {
			entries[i].Attrs["quality.degenerate"] = strconv.Itoa(q.Degenerate)
		}
		if flagged {
			entries[i].Attrs["quality.flagged"] = "true"
		}
	}
}
