package core

// This file extracts the suite's unit of scheduling — the experiment
// group — into a shared helper. A group is the set of experiments that
// share one Run invocation (Experiment.RunKey; e.g. Figure 2 and
// Table 10 come from the same context-switch sweep), and it is the
// granularity at which the suite executes, journals, replays, and at
// which the fleet coordinator partitions work across worker processes.
// Suite.Run, the builder's progress planning and internal/fleet all
// derive their iteration from GroupExperiments, so "what counts as one
// unit of work" is defined exactly once — and UnitLog defines once
// what happens to a unit before and after it executes.

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

// WorkUnit is one schedulable unit of a multi-machine run: one
// experiment group on one machine, identified by name. Units are what
// the fleet coordinator dispatches to worker processes; a unit's result
// is exactly what a serial Suite.Run produces for that group, so
// assembling unit results in unit order reproduces the serial database
// byte for byte.
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

// UnitCache is the suite's and the fleet coordinator's hook into the
// content-addressed unit cache (internal/unitcache). Lookup returns
// the recorded outcome of one (machine, group-key) work unit from a
// previous run with identical inputs, or ok=false when the unit must
// execute; Store persists a freshly computed outcome for future runs.
// The record is exactly what the journal holds for the unit — entries,
// or a skip marker — so a cache hit merges at the same point in
// iteration order as live execution and the database stays
// byte-identical. Implementations must be safe for concurrent use
// (parallel machine workers and fleet drive loops share one cache) and
// must never return a record they cannot vouch for: corruption is a
// miss, not an error. The interface lives here so core does not import
// the cache implementation.
type UnitCache interface {
	Lookup(machine, key string) (JournalRecord, bool)
	Store(rec JournalRecord) error
}

// UnitLog is the per-unit bookkeeping every executor shares: the
// journal a run resumes from, the unit cache it consults and the
// journal it writes. Suite.Run (in process) and the fleet coordinator
// (across processes) drive every unit through it, so the rules are
// stated once: the resume journal wins over the cache, a cache hit is
// journaled, and a freshly executed unit is journaled before it is
// cached. The zero value records nothing and recalls nothing.
type UnitLog struct {
	Resume  *JournalReplay
	Cache   UnitCache
	Journal *JournalWriter
	// Mode is the run's sweep mode; resume records from the other mode
	// are refused (see CheckReplayMode). Cache keys need no check: the
	// mode is part of the options fingerprint.
	Mode SweepMode
}

// Lookup returns the recorded outcome of the (machine, key) unit when
// the run need not execute it, with the event kind that announces it:
// ExperimentReplayed for a resume-journal record, ExperimentCached for
// a unit-cache hit. kind is empty when the unit must execute. Lookup
// records nothing; Settle persists the unit at its merge point.
func (l UnitLog) Lookup(machine, key string) (rec JournalRecord, kind EventKind, err error) {
	if l.Resume != nil {
		if rec, ok := l.Resume.Lookup(machine, key); ok {
			return rec, ExperimentReplayed, CheckReplayMode(rec, l.Mode)
		}
	}
	if l.Cache != nil {
		if rec, ok := l.Cache.Lookup(machine, key); ok {
			return rec, ExperimentCached, nil
		}
	}
	return JournalRecord{}, "", nil
}

// Settle persists a unit that Lookup announced as kind at its merge
// point: a cache hit is journaled, so an interrupted warm run resumes
// without consulting the cache again; a replayed unit is already in the
// journal; and a freshly executed one (kind "") is committed.
func (l UnitLog) Settle(rec JournalRecord, kind EventKind) error {
	switch kind {
	case ExperimentCached:
		return l.journal(rec)
	case ExperimentReplayed:
		return nil
	}
	return l.Commit(rec)
}

// Commit persists a freshly executed unit: the journal first, so no
// unit counts as done without its record, then the cache — a stored
// but unjournaled unit is merely a warm entry for the re-run.
func (l UnitLog) Commit(rec JournalRecord) error {
	if err := l.journal(rec); err != nil {
		return err
	}
	if l.Cache == nil {
		return nil
	}
	return l.Cache.Store(rec)
}

func (l UnitLog) journal(rec JournalRecord) error {
	if l.Journal == nil {
		return nil
	}
	return l.Journal.Record(rec)
}

// UnitsFor enumerates the work units of running the given experiment
// groups on the named machines, in merge order.
func UnitsFor(machines []string, groups []ExperimentGroup) []WorkUnit {
	units := make([]WorkUnit, 0, len(machines)*len(groups))
	for _, m := range machines {
		for _, g := range groups {
			units = append(units, WorkUnit{
				Seq: len(units), Machine: m, Key: g.Key, IDs: g.IDs,
			})
		}
	}
	return units
}
