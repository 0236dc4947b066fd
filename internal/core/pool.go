package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/timing"
)

// This file is the suite's one executor. Three kinds of position run
// through it: the work units of a run — one experiment group on one
// machine, in unit order, for Suite.Run, Runner.Run and the fleet
// coordinator alike (see unitExec) — and the points of the Figure-1
// (size × stride) and §7 memory-variant sweeps inside one unit. All are
// independent for the same reason. A simulated machine reads a virtual
// clock and is Reset to its post-build state before every experiment
// attempt, so a unit's entries depend only on the profile, the group
// and the options; a sweep point starts from FlushCaches, so its value
// depends only on the machine and the point. Build is deterministic,
// so a clone is indistinguishable from the original at both
// observation points. The executor therefore runs positions
// concurrently on each machine and on lazily made clones of it, and
// the results assemble in position order, byte-identical to a serial
// run (DESIGN.md §6d).

// poolWidth is how many instances of m a run may use at once:
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

// evalFunc evaluates one position's argument on a prepared instance.
type evalFunc = func(context.Context, int) error

// lane runs one machine's positions: it makes up to width instances —
// the machine itself, then clones made only when a position is ready,
// every instance is busy and a slot is free — and prepares each once.
// An exclusive lane (a real-time machine) runs a position only while
// nothing else of the run happens. A fleet run's lanes hand their
// positions to worker processes instead (see Suite.RunRemote).
type lane struct {
	width     int
	exclusive bool
	prepare   func(w int) (Machine, evalFunc, error)
	made      int         // instances made so far
	idle      []*instance // made instances not running a position
	// passed marks a lane no later position of the run uses: its
	// instances are dropped as they finish.
	passed bool
}

// instance is one machine of a lane and its evaluator; w is its index
// (0 is the lane's own machine).
type instance struct {
	w   int
	m   Machine
	run evalFunc
}

// machineLane is m's lane. setup prepares one instance (allocations,
// probes) and returns its evaluator; evaluators outlive a run call, so
// the adaptive planner's refinement rounds reuse the instances of the
// earlier ones.
func machineLane(m Machine, setup func(Machine) (evalFunc, error)) *lane {
	return &lane{
		width:     poolWidth(m),
		exclusive: timing.IsRealTime(m.Clock()),
		prepare: func(w int) (Machine, evalFunc, error) {
			inst := m
			if w > 0 {
				c, err := m.(Cloner).Clone()
				if err != nil {
					return nil, nil, fmt.Errorf("core: clone: %w", err)
				}
				inst = c
			}
			run, err := setup(inst)
			return inst, run, err
		},
	}
}

// eval prepares the instance if it is new and runs argument i on it.
// A clone's simulator activity inside an attempt belongs to the
// attempt, which counts only its own machine's (see ledger).
func (in *instance) eval(ctx context.Context, l *lane, i int, led *ledger) error {
	if in.run == nil {
		m, run, err := l.prepare(in.w)
		if err != nil {
			return err
		}
		in.m, in.run = m, run
	}
	ss, ok := in.m.(SimStatser)
	if !ok || led == nil || in.w == 0 {
		return in.run(ctx, i)
	}
	before := ss.SimStats()
	err := in.run(ctx, i)
	led.addSim(simDelta(ss.SimStats(), before))
	return err
}

// positions is one executor run: position pos evaluates idx[pos] on an
// instance of lane(pos). The hooks are optional and all run on the
// calling goroutine: need asks, in position order, whether a position
// must run at all (a unit the resume journal or the cache serves takes
// no slot and makes no instance); start announces a position just
// before it is dispatched; merge takes every done position in position
// order, as soon as it and every earlier position are done.
type positions struct {
	idx   []int
	lane  func(pos int) *lane
	need  func(pos int) (bool, error)
	start func(pos int)
	merge func(pos int) error
}

// run evaluates every position on at most width slots and returns the
// error a serial run returns, the lowest failing position's, with that
// position (len(ps.idx) when nothing failed). Positions are
// dispatched in position order; one waits for an instance of its lane
// and a slot, so a lane that cannot clone runs its positions one at a
// time, in order. A failure cancels the later positions in flight and
// stops dispatch; earlier positions still finish and merge, and run
// returns only after every position it started has finished. Merges
// run after the next dispatch, so they never hold a free slot idle —
// except around an exclusive lane's position, which is a barrier:
// every earlier position finishes and merges before it is dispatched,
// and no later position is looked up or merged until it is done.
//
// The caller brings one slot; every further position in flight holds
// one of width-1 more, which a run nested in a position (a sweep inside
// a unit) draws from the set its parent passes down. So a run and its
// sweeps together compute at most width positions at once, and a sweep
// widens only into slots no unit is using.
func (ps positions) run(ctx context.Context, width int) (int, error) {
	type result struct {
		pos int
		in  *instance
		err error
	}
	n := len(ps.idx)
	led := ledgerFrom(ctx)
	slots := slotsFrom(ctx)
	if slots == nil {
		slots = make(chan struct{}, max(width, 1)-1)
		ctx = withSlots(ctx, slots)
	}
	done := make(chan result, n) // positions never block reporting
	cancels := make([]context.CancelFunc, n)
	finished := make([]bool, n)
	var (
		firstErr error
		// busy counts dispatched positions not yet settled; held
		// counts the slots taken beyond the caller's.
		busy, held, merged int
		failAt             = n
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
		if l := ps.lane(r.pos); !l.passed {
			l.idle = append(l.idle, r.in)
		}
		finished[r.pos] = true
		if r.err != nil {
			fail(r.pos, r.err)
		}
	}
	advance := func() {
		for merged < failAt && finished[merged] {
			if ps.merge != nil {
				if err := ps.merge(merged); err != nil {
					fail(merged, err)
					return
				}
			}
			merged++
		}
	}

	for pos := 0; pos < n && failAt == n; pos++ {
		// Settle what has finished first, so an instance that is done
		// counts as idle and no clone is made for nothing.
		for drained := false; !drained; {
			select {
			case r := <-done:
				settle(r)
			default:
				drained = true
			}
		}
		if err := ctx.Err(); err != nil {
			fail(pos, err)
		}
		if failAt < n {
			break
		}
		if ps.need != nil {
			run, err := ps.need(pos)
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
		l := ps.lane(pos)
		if l.exclusive {
			// A real-time position runs alone: every earlier position
			// finishes and merges first.
			for busy > 0 {
				settle(<-done)
			}
			if advance(); failAt < n {
				break
			}
		}
		for failAt == n {
			free := len(l.idle) > 0 || l.made < l.width
			if free && busy < 1+held {
				break
			}
			if advance(); failAt < n {
				break
			}
			var grow chan<- struct{}
			if free {
				grow = slots
			}
			select {
			case grow <- struct{}{}:
				held++
			case r := <-done:
				settle(r)
			}
		}
		if failAt < n {
			break
		}
		in := &instance{w: l.made}
		if k := len(l.idle); k > 0 {
			in, l.idle = l.idle[k-1], l.idle[:k-1]
		} else {
			l.made++
		}
		jctx, cancel := context.WithCancel(ctx)
		cancels[pos] = cancel
		busy++
		if ps.start != nil {
			ps.start(pos)
		}
		if l.exclusive || (busy == 1 && pos == n-1) {
			// Nothing else may, or is left to, run beside it: run it on
			// the calling goroutine.
			settle(result{pos, in, in.eval(jctx, l, ps.idx[pos], led)})
		} else {
			go func() { done <- result{pos, in, in.eval(jctx, l, ps.idx[pos], led)} }()
		}
		advance()
	}
	for busy > 0 {
		advance()
		settle(<-done)
	}
	advance()
	return failAt, firstErr
}

// seq is 0..n-1.
func seq(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// slotsKey carries a run's slot set to the runs nested in its
// positions.
type slotsKey struct{}

func withSlots(ctx context.Context, slots chan struct{}) context.Context {
	return context.WithValue(ctx, slotsKey{}, slots)
}

func slotsFrom(ctx context.Context) chan struct{} {
	c, _ := ctx.Value(slotsKey{}).(chan struct{})
	return c
}

// ledger is one attempt's account of the work behind its entries: the
// simulator activity of its machine and of the clones its sweeps ran
// on, and the adaptive planner's decisions. The suite attaches one to
// the attempt's context and reports its sums as the finished event's
// Sim and Sweep counters, so they do not depend on how many clones
// shared the work.
type ledger struct {
	mu         sync.Mutex
	sim, sweep map[string]int64
}

type ledgerKey struct{}

func withLedger(ctx context.Context, l *ledger) context.Context {
	return context.WithValue(ctx, ledgerKey{}, l)
}

// ledgerFrom returns the attempt's ledger, or nil outside an attempt.
func ledgerFrom(ctx context.Context) *ledger {
	l, _ := ctx.Value(ledgerKey{}).(*ledger)
	return l
}

// addSim folds simulator counter deltas into the ledger; a nil ledger
// drops them.
func (l *ledger) addSim(d map[string]int64) {
	if l == nil || len(d) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sim = fold(l.sim, d)
}

// addSweep folds one planned sweep's decisions into the ledger; a nil
// ledger drops them.
func (l *ledger) addSweep(measured, skipped, rounds int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweep = fold(l.sweep, map[string]int64{
		"points_measured": int64(measured),
		"points_skipped":  int64(skipped),
		"rounds":          int64(rounds),
	})
}

// fold adds d into sum, which it makes on first use.
func fold(sum, d map[string]int64) map[string]int64 {
	if sum == nil {
		sum = make(map[string]int64, len(d))
	}
	for k, v := range d {
		sum[k] += v
	}
	return sum
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
