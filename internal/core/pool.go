package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/timing"
)

// This file is the suite's one worker pool. Two levels of a run
// evaluate independent work on one machine: Suite.Run's experiment
// groups (units), and the points of the Figure-1 (size × stride) and
// §7 memory-variant sweeps inside one group. Both are independent for
// the same reason. A simulated machine reads a virtual clock and is
// Reset to its post-build state before every experiment attempt, so a
// unit's entries depend only on the profile, the group and the
// options; a sweep point starts from FlushCaches, so its value depends
// only on the machine and the point. Build is deterministic, so a
// clone is indistinguishable from the original at both observation
// points. The pool therefore runs positions concurrently on the machine
// and on lazily made clones, and the results assemble in position
// order, byte-identical to a serial run (DESIGN.md §6d).

// poolWidth is how many machines a pool may run on m at once:
// GOMAXPROCS for a machine that can clone itself and reads a virtual
// clock, 1 for everything else. A real-time machine (the host) stays
// serial because concurrent load perturbs a wall-clock measurement
// (see wallMu). A machine without Clone — the fault-injection wrapper,
// whose plan is one continuous fault history, or any other wrapper —
// has no second machine to run on.
func poolWidth(m Machine) int {
	if _, ok := m.(Cloner); !ok || timing.IsRealTime(m.Clock()) {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// pool runs positions on up to width workers. Worker 0 runs on the
// pool's machine; each further worker runs on a clone, made the first
// time a position is ready while every existing worker is busy and a
// slot is free (see run). setup prepares a worker's machine once
// (allocations, probes) and returns its evaluator. Evaluators outlive
// a run call, so the adaptive planner's refinement rounds reuse the
// machines of the earlier ones.
type pool struct {
	width   int
	m       Machine
	setup   func(Machine) (func(context.Context, int) error, error)
	workers []poolWorker // prepared workers, by index
}

// poolWorker is one prepared machine and its evaluator.
type poolWorker struct {
	m   Machine
	run func(context.Context, int) error
}

func newPool(m Machine, setup func(Machine) (func(context.Context, int) error, error)) *pool {
	return &pool{width: poolWidth(m), m: m, setup: setup}
}

// prepare builds worker w: the pool's machine for worker 0, a fresh
// clone for the others.
func (p *pool) prepare(w int) (poolWorker, error) {
	m := p.m
	if w > 0 {
		c, err := p.m.(Cloner).Clone()
		if err != nil {
			return poolWorker{}, fmt.Errorf("core: clone: %w", err)
		}
		m = c
	}
	run, err := p.setup(m)
	return poolWorker{m, run}, err
}

// run evaluates idx[pos] for every position pos, in position order.
// need, when non-nil, is asked in position order whether a position
// must run at all (Suite.Run's resume and cache recall); a position
// that need not run occupies no worker and makes no clone. merge, when
// non-nil, is called on the calling goroutine for every done position,
// in position order, as soon as it and every earlier position are
// done. The returned error is the one a serial run returns: the lowest
// position's. A failure cancels the later positions in flight and
// stops dispatch; earlier positions still finish and merge, and run
// returns only after every worker has exited.
//
// Positions compute on slots. The caller brings one; every further
// position in flight holds one of width-1 more, which a pool nested in
// a position (a sweep inside a Suite.Run unit) draws from the set its
// parent passes down. So a machine's units and their sweeps together
// compute at most width positions at once, and a sweep widens only
// into slots no unit is using.
func (p *pool) run(ctx context.Context, idx []int, need func(pos int) (bool, error), merge func(pos int) error) error {
	if p.width == 1 || len(idx) <= 1 {
		return p.runSerial(ctx, idx, need, merge)
	}
	type job struct {
		ctx context.Context
		pos int
	}
	type result struct {
		pos int
		err error
	}
	n := len(idx)
	ws := make([]poolWorker, max(p.width, len(p.workers)))
	copy(ws, p.workers)
	sims := simCollectorFrom(ctx)
	deltas := make([]map[string]int64, len(ws))
	slots := slotsFrom(ctx)
	if slots == nil {
		slots = make(chan struct{}, p.width-1)
	}
	ctx = withSlots(ctx, slots)
	jobs := make(chan job)
	done := make(chan result, n) // workers never block reporting
	cancels := make([]context.CancelFunc, n)
	finished := make([]bool, n)
	var (
		wg       sync.WaitGroup
		firstErr error
		// busy counts dispatched positions whose result is not yet
		// settled, so busy < started means a worker is idle; held
		// counts the slots taken beyond the caller's.
		started, busy, held, merged int
		failAt                      = n
	)
	fail := func(pos int, err error) {
		if pos >= failAt {
			return
		}
		failAt, firstErr = pos, err
		for q := pos + 1; q < n; q++ {
			if cancels[q] != nil {
				cancels[q]()
			}
		}
	}
	settle := func(r result) {
		busy--
		for held > 0 && held >= busy {
			<-slots
			held--
		}
		cancels[r.pos]()
		cancels[r.pos] = nil
		finished[r.pos] = true
		if r.err != nil {
			fail(r.pos, r.err)
		}
	}
	advance := func() {
		for merged < failAt && finished[merged] {
			if merge != nil {
				if err := merge(merged); err != nil {
					fail(merged, err)
					return
				}
			}
			merged++
		}
	}
	work := func(w int, j job) {
		defer wg.Done()
		wk, err := ws[w], error(nil)
		if wk.run == nil {
			wk, err = p.prepare(w)
			ws[w] = wk
		}
		// A clone's simulator activity belongs to the attempt running
		// the pool, which counts only its own machine's (see attempt).
		ss, count := wk.m.(SimStatser)
		count = count && w > 0 && sims != nil && err == nil
		var before map[string]int64
		if count {
			before = ss.SimStats()
		}
		for ok := true; ok; j, ok = <-jobs {
			e := err
			if e == nil {
				e = wk.run(j.ctx, idx[j.pos])
			}
			done <- result{j.pos, e}
		}
		if count {
			deltas[w] = simDelta(ss.SimStats(), before)
		}
	}

	for pos := 0; pos < n; pos++ {
		// Settle what has finished first, so a worker that is done
		// counts as idle and no clone is made for nothing.
		for drained := false; !drained; {
			select {
			case r := <-done:
				settle(r)
			default:
				drained = true
			}
		}
		advance()
		if failAt < n {
			break
		}
		if err := ctx.Err(); err != nil {
			fail(pos, err)
			break
		}
		if need != nil {
			run, err := need(pos)
			if err != nil {
				fail(pos, err)
				break
			}
			if !run {
				finished[pos] = true
				advance()
				continue
			}
		}
		for busy == 1+held {
			var grow chan<- struct{}
			if busy < p.width {
				grow = slots
			}
			select {
			case grow <- struct{}{}:
				held++
			case r := <-done:
				settle(r)
				advance()
			}
		}
		if failAt < n {
			break
		}
		jctx, cancel := context.WithCancel(ctx)
		cancels[pos] = cancel
		if busy < started {
			jobs <- job{jctx, pos}
		} else {
			wg.Add(1)
			go work(started, job{jctx, pos})
			started++
		}
		busy++
	}
	for busy > 0 {
		settle(<-done)
		advance()
	}
	close(jobs)
	wg.Wait()
	for _, d := range deltas {
		sims.add(d)
	}
	p.workers = ws[:max(started, len(p.workers))]
	return firstErr
}

// runSerial is run at width 1, and for a single position: one position
// at a time on the pool's machine, in the calling goroutine.
func (p *pool) runSerial(ctx context.Context, idx []int, need func(pos int) (bool, error), merge func(pos int) error) error {
	for pos, i := range idx {
		if err := ctx.Err(); err != nil {
			return err
		}
		run := true
		if need != nil {
			var err error
			if run, err = need(pos); err != nil {
				return err
			}
		}
		if run {
			if len(p.workers) == 0 {
				wk, err := p.prepare(0)
				if err != nil {
					return err
				}
				p.workers = append(p.workers, wk)
			}
			if err := p.workers[0].run(ctx, i); err != nil {
				return err
			}
		}
		if merge != nil {
			if err := merge(pos); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSweep evaluates points 0..n-1 exhaustively. setup prepares one
// machine for the sweep (allocations, probes) and returns the point
// evaluator; the evaluator must make each point self-contained (the
// sweeps do so by flushing caches first). See pool.
func runSweep(ctx context.Context, m Machine, n int, setup func(Machine) (func(context.Context, int) error, error)) error {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return newPool(m, setup).run(ctx, idx, nil, nil)
}

// slotsKey carries a pool run's slot set to the pools nested in its
// positions.
type slotsKey struct{}

func withSlots(ctx context.Context, slots chan struct{}) context.Context {
	return context.WithValue(ctx, slotsKey{}, slots)
}

func slotsFrom(ctx context.Context) chan struct{} {
	c, _ := ctx.Value(slotsKey{}).(chan struct{})
	return c
}

// simCollector sums the simulator activity of the clones the pools
// inside one attempt ran; the attempt adds its own machine's activity
// and reports the sum as the finished event's Sim counters, so they do
// not depend on how many clones shared the work.
type simCollector struct {
	mu  sync.Mutex
	sum map[string]int64
}

type simCollectorKey struct{}

func withSimCollector(ctx context.Context, c *simCollector) context.Context {
	return context.WithValue(ctx, simCollectorKey{}, c)
}

func simCollectorFrom(ctx context.Context) *simCollector {
	c, _ := ctx.Value(simCollectorKey{}).(*simCollector)
	return c
}

// add folds counter deltas into the sum; a nil collector drops them.
func (c *simCollector) add(d map[string]int64) {
	if c == nil || len(d) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sum == nil {
		c.sum = make(map[string]int64, len(d))
	}
	for k, v := range d {
		c.sum[k] += v
	}
}

// simDelta is the nonzero change of each counter from before to after.
func simDelta(after, before map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}
