package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/results"
)

// This file defines the suite's unit of scheduling — the experiment
// group on one machine — and the executor's unit level. A group is the
// set of experiments that share one Run invocation (Experiment.RunKey;
// e.g. Figure 2 and Table 10 come from the same context-switch sweep),
// and it is the granularity at which a run executes, journals, replays
// and caches, in process or across the fleet's worker processes.
// Suite.Run, Runner.Run and the fleet coordinator (Suite.RunRemote) all
// run their units through one unitExec, so "what counts as one unit of
// work", the order units settle in, the failure a run returns and the
// machine events it emits are each defined exactly once.

// ExperimentGroup is one unit of suite execution: the experiments that
// share a single Run invocation, after Only filtering.
type ExperimentGroup struct {
	// Key is the group's run key (Experiment.RunKey, or the ID when
	// the experiment runs alone): the journal and replay key.
	Key string
	// IDs are the member experiment IDs that survived the Only filter,
	// in presentation order.
	IDs []string
	// Exp is the first member: the experiment whose Run function
	// executes on behalf of the whole group.
	Exp Experiment
}

// GroupExperiments folds an experiment list into its execution groups,
// applying the Only filter (nil selects all) and deduplicating shared
// RunKeys exactly the way Suite.Run iterates. The returned order is
// the deterministic suite iteration order.
func GroupExperiments(exps []Experiment, only map[string]bool) []ExperimentGroup {
	var groups []ExperimentGroup
	index := map[string]int{}
	for _, exp := range exps {
		if only != nil && !only[exp.ID] {
			continue
		}
		key := exp.RunKey
		if key == "" {
			key = exp.ID
		}
		if i, ok := index[key]; ok {
			groups[i].IDs = append(groups[i].IDs, exp.ID)
			continue
		}
		index[key] = len(groups)
		groups = append(groups, ExperimentGroup{Key: key, IDs: []string{exp.ID}, Exp: exp})
	}
	return groups
}

// WorkUnit is one schedulable unit of a run: one experiment group on
// one machine, identified by name. Units are what the fleet coordinator
// hands to worker processes; a unit's result is exactly what a serial
// Suite.Run produces for that group, so assembling unit results in unit
// order reproduces the serial database byte for byte.
type WorkUnit struct {
	// Seq is the unit's position in the deterministic merge order
	// (machine order × group order).
	Seq int
	// Machine is the machine's resolvable profile name.
	Machine string
	// Key is the experiment group's run key.
	Key string
	// IDs are the group's member experiment IDs (the Suite Only set a
	// worker runs).
	IDs []string
}

// UnitCache is the executor's hook into the content-addressed unit
// cache (internal/unitcache). Lookup returns the recorded outcome of
// one (machine, group-key) work unit from a previous run with identical
// inputs, or ok=false when the unit must execute; Store persists a
// freshly computed outcome for future runs. The record is exactly what
// the journal holds for the unit — entries, or a skip marker — so a
// cache hit merges at the same point in iteration order as live
// execution and the database stays byte-identical. Implementations must
// be safe for concurrent use and must never return a record they cannot
// vouch for: corruption is a miss, not an error. The interface lives
// here so core does not import the cache implementation.
type UnitCache interface {
	Lookup(machine, key string) (JournalRecord, bool)
	Store(rec JournalRecord) error
}

// unitLog is the per-unit bookkeeping around execution: the journal a
// run resumes from, the unit cache it consults and the journal it
// writes. The rules are stated once: the resume journal wins over the
// cache, a cache hit is journaled, and a freshly executed unit is
// journaled before it is cached. The zero value records nothing and
// recalls nothing.
type unitLog struct {
	resume  *JournalReplay
	cache   UnitCache
	journal *JournalWriter
	// config is the run's ConfigDigest: journaled records carry it, and
	// resume records that carry another are refused. Cache keys need no
	// check: they cover the same configuration.
	config string
}

// lookup returns the recorded outcome of the (machine, key) unit when
// the run need not execute it, with the event kind that announces it:
// ExperimentReplayed for a resume-journal record, ExperimentCached for
// a unit-cache hit. kind is empty when the unit must execute. lookup
// records nothing; settle persists the unit at its merge point.
func (l unitLog) lookup(machine, key string) (rec JournalRecord, kind EventKind, err error) {
	if l.resume != nil {
		if rec, ok := l.resume.Lookup(machine, key); ok {
			if rec.Config != l.config {
				return rec, ExperimentReplayed, fmt.Errorf("core: journal record %s/%s was written under other run options "+
					"(configuration digest %.12q, this run %.12q); resume with the options that wrote it, or rerun from scratch",
					machine, key, rec.Config, l.config)
			}
			return rec, ExperimentReplayed, nil
		}
	}
	if l.cache != nil {
		if rec, ok := l.cache.Lookup(machine, key); ok {
			return rec, ExperimentCached, nil
		}
	}
	return JournalRecord{}, "", nil
}

// settle persists a unit that lookup announced as kind at its merge
// point. A replayed unit is already in the journal. Anything else is
// journaled under the run's digest, so an interrupted warm run resumes
// without consulting the cache again; a freshly executed one (kind "")
// is then cached — a stored but unjournaled unit is merely a warm
// entry for the re-run, while no unit counts as done without its
// record.
func (l unitLog) settle(rec JournalRecord, kind EventKind) error {
	if kind == ExperimentReplayed {
		return nil
	}
	if l.journal != nil {
		journaled := rec
		journaled.Config = l.config
		if err := l.journal.Record(journaled); err != nil {
			return err
		}
	}
	if kind != "" || l.cache == nil {
		return nil
	}
	return l.cache.Store(rec)
}

// unitExec is the executor's unit level: its positions are the units
// of running the groups on the machines, in unit order (machine ×
// group), one lane per machine. Units are looked up through the unit
// log in unit order; a recalled unit takes no slot and makes no
// instance. Every unit merges into the database, the
// journal and the cache in unit order on the caller's goroutine, so a
// run at any width, in process or across the fleet, hands them exactly
// what a serial run does, and fails the way a serial run fails: with
// the lowest failing unit's error.
type unitExec struct {
	units  []WorkUnit
	groups []ExperimentGroup
	log    unitLog
	sink   EventSink
	// named marks a multi-machine run (Runner.Run and the fleet): it
	// names the machine in its error and brackets each machine it
	// reaches with one MachineStarted — at its first dispatched or
	// recalled unit — and one MachineFinished, which carries Err when
	// the run stopped in that machine. Suite.Run emits neither, so a
	// fleet worker forwards only its unit's own events.
	named bool
	// exec runs a fresh unit on instance m of its machine (nil in a
	// fleet slot).
	exec func(ctx context.Context, m Machine, pos int) (JournalRecord, error)
	// done, when non-nil, is called after each unit's journal record is
	// written.
	done   func()
	recs   []JournalRecord
	missed []time.Time // when each fresh unit's lookup missed
}

// plan is the unit level of running s on the named machines.
func (s *Suite) plan(names []string, named bool) (*unitExec, Options, error) {
	opts, err := s.Opts.Normalize()
	if err != nil {
		return nil, opts, err
	}
	var config string
	if s.Journal != nil || s.Resume != nil { // the digest keys journal records only
		if config, err = ConfigDigest(opts, s.MaxRSD, s.QualityRetries); err != nil {
			return nil, opts, err
		}
	}
	exps := s.Experiments
	if exps == nil {
		exps = Experiments()
		if s.Extended {
			exps = append(exps, Extensions()...)
		}
	}
	groups := GroupExperiments(exps, s.Only)
	units := make([]WorkUnit, 0, len(names)*len(groups))
	for _, m := range names {
		for _, g := range groups {
			units = append(units, WorkUnit{Seq: len(units), Machine: m, Key: g.Key, IDs: g.IDs})
		}
	}
	return &unitExec{
		units:  units,
		groups: groups,
		log:    unitLog{resume: s.Resume, cache: s.Cache, journal: s.Journal, config: config},
		sink:   SinkOrDiscard(s.Events),
		named:  named,
		recs:   make([]JournalRecord, len(units)),
		missed: make([]time.Time, len(units)),
	}, opts, nil
}

// setup is every lane's instance preparation: a unit evaluator that
// keeps the unit's record for its merge.
func (x *unitExec) setup(m Machine) (evalFunc, error) {
	return func(ctx context.Context, pos int) error {
		rec, err := x.exec(ctx, m, pos)
		x.recs[pos] = rec
		return err
	}, nil
}

// run executes every unit on lanes (one per machine) through at most
// width slots and merges the results into db, returning each machine's
// skipped experiments keyed by name.
func (x *unitExec) run(ctx context.Context, db *results.DB, width int, lanes []*lane) (map[string][]string, error) {
	ng := len(x.groups)
	kinds := make([]EventKind, len(x.units))
	began := make([]time.Time, len(lanes)) // zero once the machine finished
	skipped := map[string][]string{}
	begin := func(mi int) {
		if x.named && began[mi].IsZero() {
			began[mi] = time.Now()
			x.sink.Event(Event{Kind: MachineStarted, Time: began[mi], Machine: x.units[mi*ng].Machine})
		}
	}
	finish := func(mi int, errText string) {
		if !began[mi].IsZero() {
			x.sink.Event(Event{
				Kind: MachineFinished, Time: time.Now(), Machine: x.units[mi*ng].Machine,
				Duration: time.Since(began[mi]), Err: errText,
			})
			began[mi] = time.Time{}
		}
	}
	need := func(pos int) (bool, error) {
		if mi := pos / ng; pos%ng == 0 && mi > 0 {
			// Dispatch has passed the previous machine's last unit: drop
			// its clones as they finish.
			lanes[mi-1].passed, lanes[mi-1].idle = true, nil
		}
		u := x.units[pos]
		rec, kind, err := x.log.lookup(u.Machine, u.Key)
		if err != nil {
			return false, fmt.Errorf("%s: %w", x.groups[pos%ng].Exp.ID, err)
		}
		x.recs[pos], kinds[pos] = rec, kind
		if kind == "" {
			x.missed[pos] = time.Now()
		}
		return kind == "", nil
	}
	merge := func(pos int) error {
		mi, u, exp := pos/ng, x.units[pos], x.groups[pos%ng].Exp
		rec, kind := x.recs[pos], kinds[pos]
		x.recs[pos] = JournalRecord{}
		if kind != "" {
			// Replayed and cached units merge at the same point in the
			// unit order as live execution.
			begin(mi)
			x.sink.Event(Event{
				Kind: kind, Time: time.Now(), Machine: u.Machine,
				Experiment: exp.ID, Title: exp.Title, Entries: len(rec.Entries),
			})
		}
		if rec.Skipped {
			skipped[u.Machine] = append(skipped[u.Machine], exp.ID)
		}
		for _, e := range rec.Entries {
			if err := db.Add(e); err != nil {
				// Entries already merged stay in db; the error names the
				// experiment so a mid-run failure is attributable.
				return fmt.Errorf("%s: add %q: %w", exp.ID, e.Benchmark, err)
			}
		}
		// A cache hit is journaled here, not at lookup, so the journal
		// follows unit order too.
		if err := x.log.settle(rec, kind); err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		if x.done != nil {
			x.done()
		}
		if pos%ng == ng-1 {
			finish(mi, "")
		}
		return nil
	}
	failAt, err := positions{
		idx:   seq(len(x.units)),
		lane:  func(pos int) *lane { return lanes[pos/ng] },
		need:  need,
		start: func(pos int) { begin(pos / ng) },
		merge: merge,
	}.run(ctx, width)
	if err == nil {
		return skipped, nil
	}
	// The run stopped in machine failAt/ng; a later machine it reached
	// was cancelled.
	for mi := range lanes {
		if mi == failAt/ng {
			finish(mi, err.Error())
		} else {
			finish(mi, context.Canceled.Error())
		}
	}
	if x.named {
		err = fmt.Errorf("%s: %w", x.units[failAt].Machine, err)
	}
	return skipped, err
}

// Runner runs the suite over several machines into one database. Every
// machine's units join one run of the executor, in unit order, on
// GOMAXPROCS slots: a simulated machine runs its units on itself and on
// lazily made clones, a machine that cannot clone runs them one at a
// time, and a machine that measures real time runs each unit with
// nothing else of the run in flight.
type Runner struct {
	// Machines are the benchmark targets, in the order their results
	// are merged.
	Machines []Machine
	// Opts applies to every machine.
	Opts Options
	// Events receives the combined event stream of all machines, each
	// bracketed by MachineStarted and MachineFinished; nil discards it.
	// Sinks must be concurrency-safe (the provided ones are).
	Events EventSink
	// Only, Extended, Experiments, Timeout, Retries, RetryBackoff,
	// MaxRSD, QualityRetries, Journal, Resume and Cache mean what they
	// mean on Suite.
	Only           map[string]bool
	Extended       bool
	Experiments    []Experiment
	Timeout        time.Duration
	Retries        int
	RetryBackoff   time.Duration
	MaxRSD         float64
	QualityRetries int
	Journal        *JournalWriter
	Resume         *JournalReplay
	Cache          UnitCache
}

// Run executes the suite on every machine and merges all entries into
// db. The returned map carries each machine's skipped-experiment list
// keyed by machine name. On failure the lowest failing unit's error is
// returned, wrapped with its machine's name; every earlier unit is
// still merged, matching serial semantics.
func (r *Runner) Run(ctx context.Context, db *results.DB) (map[string][]string, error) {
	return (&Suite{
		Opts: r.Opts, Events: r.Events,
		Only: r.Only, Extended: r.Extended, Experiments: r.Experiments,
		Timeout: r.Timeout, Retries: r.Retries, RetryBackoff: r.RetryBackoff,
		MaxRSD: r.MaxRSD, QualityRetries: r.QualityRetries,
		Journal: r.Journal, Resume: r.Resume, Cache: r.Cache,
	}).run(ctx, db, r.Machines, true)
}

// RunRemote runs the suite s describes on the named machines through
// the same executor as Runner.Run, with width (at least 1) slots that
// each hand a fresh unit to exec instead of running it on a machine. exec gets the
// time the unit's lookup missed and must return promptly once ctx is
// done; done, when non-nil, is called after each unit's journal record
// is written. The fleet coordinator calls it, so lookup, dispatch
// order, settling, failure and machine events are the in-process run's.
// s's per-attempt settings (Timeout, Retries, quality gate) belong to
// whatever exec runs; the quality gate also keys the journal
// (ConfigDigest).
func (s *Suite) RunRemote(ctx context.Context, db *results.DB, machines []string, width int,
	exec func(ctx context.Context, u WorkUnit, missed time.Time) (JournalRecord, error), done func()) (map[string][]string, error) {
	x, _, err := s.plan(machines, true)
	if err != nil {
		return nil, err
	}
	x.exec = func(ctx context.Context, _ Machine, pos int) (JournalRecord, error) {
		return exec(ctx, x.units[pos], x.missed[pos])
	}
	x.done = done
	run, _ := x.setup(nil)
	lanes := make([]*lane, len(machines))
	for i := range lanes {
		lanes[i] = &lane{width: width, prepare: func(int) (Machine, evalFunc, error) { return nil, run, nil }}
	}
	return x.run(ctx, db, width, lanes)
}

// run executes the suite on ms through the executor, GOMAXPROCS-wide.
func (s *Suite) run(ctx context.Context, db *results.DB, ms []Machine, named bool) (map[string][]string, error) {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name()
	}
	x, opts, err := s.plan(names, named)
	if err != nil {
		return nil, err
	}
	x.exec = func(ctx context.Context, m Machine, pos int) (JournalRecord, error) {
		g := x.groups[pos%len(x.groups)]
		entries, err := s.runExperiment(ctx, m, x.sink, g.Exp, opts)
		switch {
		case IsUnsupported(err):
			return JournalRecord{Machine: m.Name(), Key: g.Key, Skipped: true, Err: err.Error()}, nil
		case err != nil:
			return JournalRecord{}, fmt.Errorf("%s: %w", g.Exp.ID, err)
		}
		return JournalRecord{Machine: m.Name(), Key: g.Key, Entries: entries}, nil
	}
	lanes := make([]*lane, len(ms))
	for i, m := range ms {
		lanes[i] = machineLane(m, x.setup)
	}
	return x.run(ctx, db, runtime.GOMAXPROCS(0), lanes)
}
