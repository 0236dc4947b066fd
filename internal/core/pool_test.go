package core_test

// Tests for the suite's one executor: a run at any GOMAXPROCS — one
// machine's Suite.Run or one Runner over several machines — must give
// the database, the journal and the unit cache exactly what a serial
// run gives them, fail the way a serial run fails, clone only when two
// units of a machine are ready at once, run a machine that cannot clone
// one unit at a time and a real-time machine's units alone. make race
// runs the TestPool* tests repeatedly under the race detector.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
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

// runPool runs the subset on the named machines, with a journal and a
// unit cache seeded from seed: one Suite.Run per machine in turn, or
// all of them through one Runner.
func runPool(t *testing.T, names []string, seed map[string]core.JournalRecord, runner bool) poolOutcome {
	t.Helper()
	var journal bytes.Buffer
	jw, err := core.NewJournalWriter(&journal)
	if err != nil {
		t.Fatal(err)
	}
	cache := newOrderCache(seed)
	events := &recorderSink{}
	db := &results.DB{}
	ms := make([]core.Machine, len(names))
	for i, name := range names {
		ms[i] = simMachine(t, name)
	}
	if runner {
		r := &core.Runner{
			Machines: ms, Opts: poolOpts(), Only: poolSubset(),
			Journal: jw, Cache: cache, Events: events,
		}
		if _, err := r.Run(context.Background(), db); err != nil {
			t.Fatalf("runner at GOMAXPROCS=%d: %v", runtime.GOMAXPROCS(0), err)
		}
	} else {
		for _, m := range ms {
			s := &core.Suite{
				M: m, Opts: poolOpts(), Only: poolSubset(),
				Journal: jw, Cache: cache, Events: events,
			}
			if _, err := s.Run(context.Background(), db); err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", m.Name(), runtime.GOMAXPROCS(0), err)
			}
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

// TestPoolEquivalence is the executor's byte-identity contract on
// three compiled machines, run one Suite.Run at a time and through one
// Runner: at GOMAXPROCS 1, 2 and 4 a cold run and a mixed run (every
// other unit a cache hit) give the serial run's database bytes,
// journal record sequence and unit-cache store sequence, and every
// executed experiment reports identical simulator counters.
func TestPoolEquivalence(t *testing.T) {
	names := []string{"Linux/i686", "DEC Alpha@150", "HP K210"}
	var cold, mixed poolOutcome
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		for _, runner := range []bool{false, true} {
			gotCold := runPool(t, names, nil, runner)
			if cold.db == nil {
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
			gotMixed := runPool(t, names, seed, runner)
			if mixed.db == nil {
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
				if runner {
					c.run += " runner"
				}
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

// failingMachineGroups are four synthetic groups e0..e3. On machine
// bad, e0 fails and e1..e3 block until they are cancelled; everywhere
// else every group succeeds at once. So in a run over several machines
// the first failure is bad's first unit, and its later units hold every
// slot a machine after it could take until the failure lands. Without
// next, bad's e0 fails at once: GOMAXPROCS ≤ 4 cannot reach the
// machines after bad. With next, it fails only once a unit of machine
// next has started, so a wider run reaches that machine first.
func failingMachineGroups(bad, next string, active *atomic.Int64) []core.Experiment {
	reached := make(chan struct{})
	var once sync.Once
	var exps []core.Experiment
	for _, id := range []string{"e0", "e1", "e2", "e3"} {
		exps = append(exps, core.Experiment{
			ID: id, Title: id, Benchmarks: []string{id},
			Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
				active.Add(1)
				defer active.Add(-1)
				switch {
				case m.Name() == next:
					once.Do(func() { close(reached) })
				case m.Name() != bad:
				case id == "e0":
					if next != "" {
						select {
						case <-reached:
						case <-time.After(10 * time.Second):
							return nil, errors.New("next machine never reached")
						}
					}
					return nil, errors.New("boom")
				default:
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-time.After(10 * time.Second):
						return nil, errors.New("never cancelled")
					}
				}
				if err := m.OS().NullWrite(); err != nil {
					return nil, err
				}
				return []results.Entry{{Benchmark: id, Machine: m.Name(), Unit: "ns", Scalar: 1}}, nil
			},
		})
	}
	return exps
}

// TestPoolRunnerFailureMatchesSerial is the failure contract of a run
// over several machines. At GOMAXPROCS 1, 2 and 4 it returns the lowest
// failing unit's error, named by its machine; every MachineStarted has
// exactly one MachineFinished, carrying Err on the failing machine; the
// machine after the failure emits no event; and the database and the
// journal hold exactly the units before the failure. At GOMAXPROCS 8
// the run reaches the machine after the failure before the failure
// lands: that machine is bracketed too, its MachineFinished carrying a
// cancellation rather than the failing machine's error, and it still
// merges and journals nothing.
func TestPoolRunnerFailureMatchesSerial(t *testing.T) {
	names := []string{"Linux/i686", "Linux/i586", "HP K210"}
	var wantDB, wantJournal []byte
	for _, procs := range []int{1, 2, 4, 8} {
		setProcs(t, procs)
		reach := procs == 8
		next := ""
		if reach {
			next = names[2]
		}
		var active atomic.Int64
		var journal bytes.Buffer
		jw, err := core.NewJournalWriter(&journal)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorderSink{}
		r := &core.Runner{
			Opts: smallOpts(), Experiments: failingMachineGroups(names[1], next, &active),
			Journal: jw, Events: rec,
		}
		for _, n := range names {
			r.Machines = append(r.Machines, simMachine(t, n))
		}
		db := &results.DB{}
		_, err = r.Run(context.Background(), db)
		if want := names[1] + ": e0: boom"; err == nil || err.Error() != want {
			t.Fatalf("GOMAXPROCS=%d: error %v, want %q", procs, err, want)
		}
		if n := active.Load(); n != 0 {
			t.Errorf("GOMAXPROCS=%d: Run returned with %d experiments still running", procs, n)
		}
		started, finished := map[string]int{}, map[string][]string{}
		for _, e := range rec.events {
			switch {
			case e.Machine == names[2] && !reach:
				t.Errorf("GOMAXPROCS=%d: %s event for %s, the machine after the failure", procs, e.Kind, e.Machine)
			case e.Kind == core.MachineStarted:
				started[e.Machine]++
			case e.Kind == core.MachineFinished:
				finished[e.Machine] = append(finished[e.Machine], e.Err)
			}
		}
		wantErrs := []string{"", "e0: boom"}
		if reach {
			wantErrs = append(wantErrs, context.Canceled.Error())
		}
		for i, wantErr := range wantErrs {
			n := names[i]
			if started[n] != 1 || len(finished[n]) != 1 || finished[n][0] != wantErr {
				t.Errorf("GOMAXPROCS=%d: %s started %d times, finished with errors %q; want once each, finished with %q",
					procs, n, started[n], finished[n], wantErr)
			}
		}
		got := encodeDB(t, db)
		if procs == 1 {
			wantDB, wantJournal = got, journal.Bytes()
			if ms := db.Machines(); len(ms) != 1 || ms[0] != names[0] || db.Len() != 4 {
				t.Fatalf("serial run merged %d entries of %v, want the 4 of %s", db.Len(), ms, names[0])
			}
			continue
		}
		if !bytes.Equal(got, wantDB) {
			t.Errorf("GOMAXPROCS=%d: partial database differs from the serial run", procs)
		}
		if !bytes.Equal(journal.Bytes(), wantJournal) {
			t.Errorf("GOMAXPROCS=%d: journal differs from the serial run:\n%s\nserial:\n%s", procs, journal.Bytes(), wantJournal)
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

// TestPoolCloneAccounting: the executor clones a machine only when a
// second fresh unit of it is ready while every instance is busy. A
// fully warm run and a run with one fresh unit make no clone; a run
// with several fresh units makes at most GOMAXPROCS-1 per machine,
// alone or in one Runner with two more machines. The groups are
// sweep-free, so every clone counted is a unit clone.
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

		// One Runner over three machines: each machine's units run on
		// it and at most GOMAXPROCS-1 clones of it.
		runAll := func(cache core.UnitCache) []int64 {
			ms := []countingMachine{countingSim(t, "Linux/i686"), countingSim(t, "Linux/i586"), countingSim(t, "HP K210")}
			r := &core.Runner{Opts: smallOpts(), Only: only, Cache: cache}
			for _, m := range ms {
				r.Machines = append(r.Machines, m)
			}
			if _, err := r.Run(context.Background(), &results.DB{}); err != nil {
				t.Fatal(err)
			}
			clones := make([]int64, len(ms))
			for i, m := range ms {
				clones[i] = m.clones.Load()
			}
			return clones
		}
		cache = newOrderCache(nil)
		for i, n := range runAll(cache) {
			if n > int64(procs-1) {
				t.Errorf("GOMAXPROCS=%d: runner's machine %d made %d clones, want at most %d", procs, i, n, procs-1)
			}
		}
		for i, n := range runAll(cache) {
			if n != 0 {
				t.Errorf("GOMAXPROCS=%d: fully warm runner's machine %d made %d clones, want 0", procs, i, n)
			}
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

// eventSteps is the recorded event sequence of the named machines (all
// of them when none are named).
func eventSteps(rec *recorderSink, machines ...string) []eventStep {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var steps []eventStep
	for _, e := range rec.events {
		if len(machines) == 0 || slices.Contains(machines, e.Machine) {
			steps = append(steps, eventStep{e.Kind, e.Experiment, e.Attempt, e.Err})
		}
	}
	return steps
}

// overlapSink records events and counts those that show an experiment
// attempt of machine rt running beside another machine's.
type overlapSink struct {
	recorderSink
	rt       string
	omu      sync.Mutex
	open     map[string]int // attempts in flight, by machine
	rtStarts int            // attempts of rt started so far
	overlaps int
}

func (o *overlapSink) Event(e core.Event) {
	o.recorderSink.Event(e)
	o.omu.Lock()
	defer o.omu.Unlock()
	switch e.Kind {
	case core.ExperimentStarted:
		o.open[e.Machine]++
		if e.Machine == o.rt {
			o.rtStarts++
		}
	case core.ExperimentFinished, core.ExperimentRetried, core.ExperimentSkipped, core.ExperimentFailed, core.ExperimentQuality:
		defer func() { o.open[e.Machine]-- }()
	default:
		return
	}
	others := 0
	for m, n := range o.open {
		if m != o.rt {
			others += n
		}
	}
	if o.open[o.rt] > 0 && others > 0 {
		o.overlaps++
	}
}

// rtState is how many attempts of rt are open and have started.
func (o *overlapSink) rtState() (open, starts int) {
	o.omu.Lock()
	defer o.omu.Unlock()
	return o.open[o.rt], o.rtStarts
}

// rtProbe is a run's journal writer and wraps its unit cache. It counts
// the writes, lookups and stores that ran while an attempt of the
// real-time machine was open or started; each takes a millisecond, so
// one issued just after a real-time unit's dispatch sees its attempt
// start.
type rtProbe struct {
	core.UnitCache
	o      *overlapSink
	during atomic.Int64
}

func (p *rtProbe) probe(f func()) {
	open, starts := p.o.rtState()
	time.Sleep(time.Millisecond)
	f()
	openAfter, startsAfter := p.o.rtState()
	if open > 0 || openAfter > 0 || starts != startsAfter {
		p.during.Add(1)
	}
}

func (p *rtProbe) Write(b []byte) (int, error) {
	p.probe(func() {})
	return len(b), nil
}

func (p *rtProbe) Lookup(machine, key string) (rec core.JournalRecord, ok bool) {
	p.probe(func() { rec, ok = p.UnitCache.Lookup(machine, key) })
	return rec, ok
}

func (p *rtProbe) Store(rec core.JournalRecord) (err error) {
	p.probe(func() { err = p.UnitCache.Store(rec) })
	return err
}

// TestPoolSerialFallbacks: a fault-wrapped machine (no Clone) and a
// cloneable machine that measures real time stay on the serial path —
// at GOMAXPROCS=4 they emit exactly the event sequence of GOMAXPROCS=1
// and make no clone. In one Runner beside a simulated machine, the
// real-time machine's units run with nothing else of the run in flight
// — no other unit, no journal write, no cache lookup or store — and the
// fault-wrapped machine's event sequence is still its serial one.
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
	t.Run("mixed", func(t *testing.T) {
		var want []eventStep
		var wantDB []byte
		for _, procs := range []int{1, 4} {
			setProcs(t, procs)
			sim, rt, fm := countingSim(t, "Linux/i686"), countingSim(t, "Linux/i586"), countingSim(t, "HP K210")
			rec := &overlapSink{rt: rt.Name(), open: map[string]int{}}
			probe := &rtProbe{UnitCache: newOrderCache(nil), o: rec}
			jw, err := core.NewJournalWriter(probe)
			if err != nil {
				t.Fatal(err)
			}
			r := &core.Runner{
				Machines: []core.Machine{sim, realTimeMachine{rt}, faults.Wrap(fm, plan)},
				Opts:     smallOpts(), Only: only, Events: rec,
				Retries: 10, RetryBackoff: time.Millisecond,
				Journal: jw, Cache: probe,
			}
			db := &results.DB{}
			if _, err := r.Run(context.Background(), db); err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			if n := probe.during.Load(); n != 0 {
				t.Errorf("GOMAXPROCS=%d: %d journal writes or cache calls ran during a real-time attempt", procs, n)
			}
			if n := rt.clones.Load() + fm.clones.Load(); n != 0 {
				t.Errorf("GOMAXPROCS=%d: serial machines were cloned %d times", procs, n)
			}
			if rec.overlaps != 0 {
				t.Errorf("GOMAXPROCS=%d: %d events show a unit running beside the real-time machine's", procs, rec.overlaps)
			}
			got := eventSteps(&rec.recorderSink, fm.Name())
			if procs == 1 {
				want, wantDB = got, encodeDB(t, db)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS=%d: the fault-wrapped machine's events differ from the serial run:\n%s\nserial:\n%s",
					procs, fmt.Sprint(got), fmt.Sprint(want))
			}
			if !bytes.Equal(encodeDB(t, db), wantDB) {
				t.Errorf("GOMAXPROCS=%d: database differs from the serial run", procs)
			}
		}
	})
}
