package core_test

// Tests for the suite's worker pool: a run at any GOMAXPROCS must give
// the database, the journal and the unit cache exactly what a serial
// run gives them, fail the way a serial run fails, clone only when two
// units are ready at once, and keep every machine that cannot clone —
// or measures real time — on the serial path. make race runs the
// TestPool* tests repeatedly under the race detector.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machines"
	"repro/internal/results"
	"repro/internal/timing"
)

// poolOpts are smallOpts shrunk further, so the equivalence runs stay
// quick under the race detector while still nesting a sweep's points
// inside a unit.
func poolOpts() core.Options {
	o := smallOpts()
	o.MemSize, o.FileSize, o.MaxChaseSize = 256<<10, 256<<10, 64<<10
	o.PipeBytes, o.TCPBytes = 16<<10, 32<<10
	o.FSFiles = 50
	o.CtxProcs, o.CtxSizes = []int{2, 4}, []int64{0, 16 << 10}
	return o
}

// poolSubset covers a sweep group, the memory, OS, context-switch and
// IPC paths, and a file-system group.
func poolSubset() map[string]bool {
	return map[string]bool{
		"table2": true, "table6": true, "table7": true, "table8": true,
		"table10": true, "table11": true, "table16": true,
	}
}

// orderCache is an in-memory unit cache that records the order of its
// stores.
type orderCache struct {
	mu     sync.Mutex
	recs   map[string]core.JournalRecord
	stores []string
}

func newOrderCache(seed map[string]core.JournalRecord) *orderCache {
	c := &orderCache{recs: map[string]core.JournalRecord{}}
	for k, r := range seed {
		c.recs[k] = r
	}
	return c
}

func (c *orderCache) Lookup(machine, key string) (core.JournalRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.recs[machine+"/"+key]
	return rec, ok
}

func (c *orderCache) Store(rec core.JournalRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := rec.Machine + "/" + rec.Key
	c.recs[k] = rec
	c.stores = append(c.stores, k)
	return nil
}

// poolOutcome is everything a run hands its consumers.
type poolOutcome struct {
	db, journal []byte
	stores      []string
	// sim maps machine/experiment to the finished event's Sim counters.
	sim   map[string]map[string]int64
	cache *orderCache
}

// runPool runs the subset on each named machine in turn, with a
// journal and a unit cache seeded from seed.
func runPool(t *testing.T, names []string, seed map[string]core.JournalRecord) poolOutcome {
	t.Helper()
	var journal bytes.Buffer
	jw, err := core.NewJournalWriter(&journal)
	if err != nil {
		t.Fatal(err)
	}
	cache := newOrderCache(seed)
	events := &recorderSink{}
	db := &results.DB{}
	for _, name := range names {
		s := &core.Suite{
			M: simMachine(t, name), Opts: poolOpts(), Only: poolSubset(),
			Journal: jw, Cache: cache, Events: events,
		}
		if _, err := s.Run(context.Background(), db); err != nil {
			t.Fatalf("%s at GOMAXPROCS=%d: %v", name, runtime.GOMAXPROCS(0), err)
		}
	}
	out := poolOutcome{
		db: encodeDB(t, db), journal: journal.Bytes(), stores: cache.stores,
		sim: map[string]map[string]int64{}, cache: cache,
	}
	for _, e := range events.byKind(core.ExperimentFinished) {
		out.sim[e.Machine+"/"+e.Experiment] = e.Sim
	}
	return out
}

// TestPoolEquivalence is the pool's byte-identity contract on three
// compiled machines: at GOMAXPROCS 1, 2 and 4 a cold run and a mixed
// run (every other unit a cache hit) give identical database bytes,
// journal record sequences and unit-cache store sequences, and every
// executed experiment reports identical simulator counters.
func TestPoolEquivalence(t *testing.T) {
	names := []string{"Linux/i686", "DEC Alpha@150", "HP K210"}
	var cold, mixed poolOutcome
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		gotCold := runPool(t, names, nil)
		if procs == 1 {
			cold = gotCold
		}
		// Seed the mixed run with every other unit the serial cold
		// run stored, so hits and fresh units alternate.
		seed := map[string]core.JournalRecord{}
		for i, k := range cold.stores {
			if i%2 == 0 {
				seed[k] = cold.cache.recs[k]
			}
		}
		gotMixed := runPool(t, names, seed)
		if procs == 1 {
			mixed = gotMixed
			if len(seed) == 0 || len(mixed.stores) == 0 {
				t.Fatalf("mixed run is not mixed: %d seeded, %d stored", len(seed), len(mixed.stores))
			}
			continue
		}
		for _, c := range []struct {
			run       string
			got, want poolOutcome
		}{{"cold", gotCold, cold}, {"mixed", gotMixed, mixed}} {
			if !bytes.Equal(c.got.db, c.want.db) {
				t.Errorf("GOMAXPROCS=%d %s: database differs from the serial run", procs, c.run)
			}
			if !bytes.Equal(c.got.journal, c.want.journal) {
				t.Errorf("GOMAXPROCS=%d %s: journal differs from the serial run", procs, c.run)
			}
			if !reflect.DeepEqual(c.got.stores, c.want.stores) {
				t.Errorf("GOMAXPROCS=%d %s: cache stores %v, serial stored %v", procs, c.run, c.got.stores, c.want.stores)
			}
			if !reflect.DeepEqual(c.got.sim, c.want.sim) {
				t.Errorf("GOMAXPROCS=%d %s: finished events' Sim counters differ from the serial run", procs, c.run)
			}
		}
	}
}

// failingGroups are four synthetic groups whose third fails. At
// GOMAXPROCS > 1 the failing group waits until the fourth has started,
// so the fourth is in flight when the failure lands and must be
// cancelled; it blocks until its context ends.
type failingGroups struct {
	active        atomic.Int64 // experiments running right now
	lateStarted   chan struct{}
	lateCancelled atomic.Bool
	startOnce     sync.Once
}

func (f *failingGroups) experiments() []core.Experiment {
	ok := func(id string) core.Experiment {
		return core.Experiment{
			ID: id, Title: id, Benchmarks: []string{id},
			Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
				f.active.Add(1)
				defer f.active.Add(-1)
				if err := m.OS().NullWrite(); err != nil {
					return nil, err
				}
				return []results.Entry{{Benchmark: id, Machine: m.Name(), Unit: "ns", Scalar: 1}}, nil
			},
		}
	}
	boom := core.Experiment{
		ID: "boom", Title: "boom", Benchmarks: []string{"boom"},
		Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
			f.active.Add(1)
			defer f.active.Add(-1)
			if runtime.GOMAXPROCS(0) > 1 {
				select {
				case <-f.lateStarted:
				case <-time.After(10 * time.Second):
					return nil, errors.New("the later unit never started")
				}
			}
			return nil, errors.New("boom")
		},
	}
	late := core.Experiment{
		ID: "late", Title: "late", Benchmarks: []string{"late"},
		Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
			f.active.Add(1)
			defer f.active.Add(-1)
			f.startOnce.Do(func() { close(f.lateStarted) })
			select {
			case <-ctx.Done():
				f.lateCancelled.Store(true)
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return []results.Entry{{Benchmark: "late", Machine: m.Name(), Unit: "ns", Scalar: 1}}, nil
			}
		},
	}
	return []core.Experiment{ok("first"), ok("second"), boom, late}
}

// TestPoolFailureMatchesSerial: a failing middle group on a cloneable
// machine returns the serial run's error, merged database and journal
// at every GOMAXPROCS; the unit after it is cancelled, and Run returns
// only once every worker has exited.
func TestPoolFailureMatchesSerial(t *testing.T) {
	type outcome struct {
		err         string
		db, journal []byte
	}
	var want outcome
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		f := &failingGroups{lateStarted: make(chan struct{})}
		var journal bytes.Buffer
		jw, err := core.NewJournalWriter(&journal)
		if err != nil {
			t.Fatal(err)
		}
		db := &results.DB{}
		s := &core.Suite{
			M: simMachine(t, "Linux/i686"), Opts: smallOpts(),
			Experiments: f.experiments(), Journal: jw,
		}
		_, runErr := s.Run(context.Background(), db)
		if runErr == nil {
			t.Fatalf("GOMAXPROCS=%d: run succeeded past a failing group", procs)
		}
		if n := f.active.Load(); n != 0 {
			t.Errorf("GOMAXPROCS=%d: Run returned with %d experiments still running", procs, n)
		}
		got := outcome{runErr.Error(), encodeDB(t, db), journal.Bytes()}
		if procs == 1 {
			want = got
			if want.err != "boom: boom" {
				t.Fatalf("serial error %q, want %q", want.err, "boom: boom")
			}
			continue
		}
		if !f.lateCancelled.Load() {
			t.Errorf("GOMAXPROCS=%d: the unit after the failure was not cancelled", procs)
		}
		if got.err != want.err {
			t.Errorf("GOMAXPROCS=%d: error %q, serial run returned %q", procs, got.err, want.err)
		}
		if !bytes.Equal(got.db, want.db) {
			t.Errorf("GOMAXPROCS=%d: partial database differs from the serial run", procs)
		}
		if !bytes.Equal(got.journal, want.journal) {
			t.Errorf("GOMAXPROCS=%d: journal differs from the serial run:\n%s\nserial:\n%s", procs, got.journal, want.journal)
		}
	}
}

// countingMachine counts the clones made of it and of its clones.
type countingMachine struct {
	*machines.Machine
	clones *atomic.Int64
}

func (c countingMachine) Clone() (core.Machine, error) {
	c.clones.Add(1)
	m, err := c.Machine.Clone()
	if err != nil {
		return nil, err
	}
	return countingMachine{m.(*machines.Machine), c.clones}, nil
}

func countingSim(t *testing.T, name string) countingMachine {
	t.Helper()
	return countingMachine{simMachine(t, name).(*machines.Machine), &atomic.Int64{}}
}

// TestPoolCloneAccounting: the pool clones only when a second fresh
// unit is ready while every machine is busy. A fully warm run and a run
// with one fresh unit make no clone; a run with several fresh units
// makes at most GOMAXPROCS-1. The groups are sweep-free, so every clone
// counted is a unit clone.
func TestPoolCloneAccounting(t *testing.T) {
	only := map[string]bool{"table7": true, "table8": true, "table9": true, "table11": true, "table15": true, "table16": true}
	for _, procs := range []int{2, 4} {
		setProcs(t, procs)
		run := func(cache core.UnitCache) int64 {
			m := countingSim(t, "Linux/i686")
			s := &core.Suite{M: m, Opts: smallOpts(), Only: only, Cache: cache}
			if _, err := s.Run(context.Background(), &results.DB{}); err != nil {
				t.Fatal(err)
			}
			return m.clones.Load()
		}
		cache := newOrderCache(nil)
		if n := run(cache); n > int64(procs-1) {
			t.Errorf("GOMAXPROCS=%d: cold run of %d units made %d clones, want at most %d", procs, len(only), n, procs-1)
		}
		if n := run(cache); n != 0 {
			t.Errorf("GOMAXPROCS=%d: fully warm run made %d clones, want 0", procs, n)
		}
		delete(cache.recs, "Linux/i686/table8")
		if n := run(cache); n != 0 {
			t.Errorf("GOMAXPROCS=%d: run with one fresh unit made %d clones, want 0", procs, n)
		}
	}
}

// realTimeClock reads the virtual clock but reports real time, the way
// the host's clock does.
type realTimeClock struct{ timing.Clock }

func (realTimeClock) RealTime() bool { return true }

// realTimeMachine is a cloneable machine whose clock reads real time.
type realTimeMachine struct{ countingMachine }

func (m realTimeMachine) Clock() timing.Clock { return realTimeClock{m.countingMachine.Clock()} }

// eventStep is the part of an event a serial run fixes: everything but
// wall times and durations.
type eventStep struct {
	Kind       core.EventKind
	Experiment string
	Attempt    int
	Err        string
}

func eventSteps(rec *recorderSink) []eventStep {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	steps := make([]eventStep, len(rec.events))
	for i, e := range rec.events {
		steps[i] = eventStep{e.Kind, e.Experiment, e.Attempt, e.Err}
	}
	return steps
}

// TestPoolSerialFallbacks: a fault-wrapped machine (no Clone) and a
// cloneable machine that measures real time stay on the serial path —
// at GOMAXPROCS=4 they emit exactly the event sequence of GOMAXPROCS=1
// and make no clone.
func TestPoolSerialFallbacks(t *testing.T) {
	only := map[string]bool{"table7": true, "table8": true, "table11": true, "table16": true}
	plan := faults.Plan{Seed: 3, FailFirstN: 1, SpikeRate: 0.01, SpikeFor: time.Microsecond, Budget: 12}
	cases := []struct {
		name    string
		machine func() (core.Machine, *atomic.Int64)
	}{
		{"faults", func() (core.Machine, *atomic.Int64) {
			m := countingSim(t, "Linux/i686")
			return faults.Wrap(m, plan), m.clones
		}},
		{"real-time", func() (core.Machine, *atomic.Int64) {
			m := countingSim(t, "Linux/i686")
			return realTimeMachine{m}, m.clones
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want []eventStep
			var wantDB []byte
			for _, procs := range []int{1, 4} {
				setProcs(t, procs)
				m, clones := c.machine()
				rec := &recorderSink{}
				s := &core.Suite{
					M: m, Opts: smallOpts(), Only: only, Events: rec,
					Retries: 10, RetryBackoff: time.Millisecond,
				}
				db := &results.DB{}
				if _, err := s.Run(context.Background(), db); err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if n := clones.Load(); n != 0 {
					t.Errorf("GOMAXPROCS=%d: serial machine was cloned %d times", procs, n)
				}
				got := eventSteps(rec)
				if procs == 1 {
					want, wantDB = got, encodeDB(t, db)
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("GOMAXPROCS=%d: event sequence differs from the serial run:\n%s\nserial:\n%s",
						procs, fmt.Sprint(got), fmt.Sprint(want))
				}
				if !bytes.Equal(encodeDB(t, db), wantDB) {
					t.Errorf("GOMAXPROCS=%d: database differs from the serial run", procs)
				}
			}
		})
	}
}
