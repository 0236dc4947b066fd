package lmbench_test

import (
	"context"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	lmbench "repro"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/machines"
	"repro/internal/results"
)

// TestGoldenDatabaseFleetByteIdentical regenerates the entire
// evaluation across worker processes and pins the result against the
// same golden hash as the serial run: fleet execution is proven to
// change nothing observable at any pool size.
func TestGoldenDatabaseFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite fleet regeneration is slow; skipped with -short")
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[workers], func(t *testing.T) {
			db := &results.DB{}
			c := &fleet.Coordinator{
				Machines: machines.Names(), Opts: goldenOpts(), Workers: workers,
			}
			if _, err := c.Run(context.Background(), db); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, db, t.Name())
		})
	}
}

// TestGoldenFleetInterruptResume interrupts a journaled fleet run
// partway through (the coordinator analogue of kill -9: the context is
// cut and the worker pool torn down), then resumes from the journal
// through the public facade — and still lands on the golden hash.
func TestGoldenFleetInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite fleet regeneration is slow; skipped with -short")
	}
	path := filepath.Join(t.TempDir(), "golden.jnl")
	sims := make([]lmbench.Machine, 0, len(machines.Names()))
	for _, n := range machines.Names() {
		m, err := lmbench.NewSimMachine(n)
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, m)
	}
	bench := func(extra ...lmbench.Option) *lmbench.Bench {
		opts := []lmbench.Option{
			lmbench.WithOptions(goldenOpts()),
			lmbench.WithJournal(path),
			lmbench.WithFleet(4),
		}
		for _, m := range sims {
			opts = append(opts, lmbench.WithMachine(m))
		}
		return lmbench.New(append(opts, extra...)...)
	}

	// First run: cancel once a third of the experiment groups have
	// landed in the journal.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	total := len(machines.Names()) * len(core.GroupExperiments(core.Experiments(), nil))
	var mu sync.Mutex
	finished := 0
	counting := sinkFunc(func(e lmbench.Event) {
		if e.Kind != core.ExperimentFinished {
			return
		}
		mu.Lock()
		finished++
		n := finished
		mu.Unlock()
		if n == total/3 {
			cancel()
		}
	})
	if _, err := bench(lmbench.WithSink(counting)).Run(ctx); err == nil {
		t.Fatal("interrupted run reported success")
	}

	// Resumed run: WithJournal's create-or-resume semantics replay the
	// journaled units and execute only the remainder.
	rep, err := bench().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep.DB, "interrupt+resume")
}

// TestGoldenFleetWorkerKill SIGKILLs one worker while the golden run
// is in flight; the orphaned unit is re-dispatched and the database
// still hashes golden.
func TestGoldenFleetWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite fleet regeneration is slow; skipped with -short")
	}
	obs := &killObserver{}
	c := &fleet.Coordinator{
		Machines: machines.Names(), Opts: goldenOpts(), Workers: 4, Obs: obs,
	}
	obs.kill = func() {
		if pids := c.WorkerPIDs(); len(pids) > 0 {
			_ = kill9(pids[0])
		}
	}
	db := &results.DB{}
	if _, err := c.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if obs.downs() == 0 {
		t.Error("no worker death observed; the kill missed the run")
	}
	checkGolden(t, db, "worker-kill")
}

func kill9(pid int) error { return syscall.Kill(pid, syscall.SIGKILL) }

// killObserver fires its kill hook once, after the first completed
// unit (so the pool is warm and the queue still deep).
type killObserver struct {
	mu   sync.Mutex
	down int
	done int
	once sync.Once
	kill func()
}

func (o *killObserver) WorkerUp(string) {}

func (o *killObserver) WorkerDown(string, error) {
	o.mu.Lock()
	o.down++
	o.mu.Unlock()
}

func (o *killObserver) QueueDepth(int, int)          {}
func (o *killObserver) UnitDispatched(time.Duration) {}

func (o *killObserver) UnitDone() {
	o.mu.Lock()
	o.done++
	o.mu.Unlock()
	o.once.Do(o.kill)
}

func (o *killObserver) UnitRetried() {}

func (o *killObserver) downs() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.down
}
