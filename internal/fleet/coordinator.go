package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
)

// Observer sees the coordinator's scheduling activity out of band —
// the fleet analogue of the suite's event stream for state that has no
// experiment to hang off. obs.FleetMetrics implements it; nil means
// unobserved. Implementations must be safe for concurrent use.
type Observer interface {
	// WorkerUp and WorkerDown bracket one worker's lifetime in the
	// pool; err carries the transport failure that killed it.
	WorkerUp(id string)
	WorkerDown(id string, err error)
	// QueueDepth reports the current number of units awaiting dispatch
	// and in flight, whenever either changes.
	QueueDepth(queued, inflight int)
	// UnitDispatched reports how long a unit waited in the queue
	// before being sent to a worker.
	UnitDispatched(wait time.Duration)
	// UnitDone reports one unit completing (run, skipped, replayed or
	// served from the unit cache).
	UnitDone()
	// UnitRetried reports one unit being re-queued after its worker
	// died mid-flight.
	UnitRetried()
}

// noopObserver stands in for a nil Observer.
type noopObserver struct{}

func (noopObserver) WorkerUp(string)              {}
func (noopObserver) WorkerDown(string, error)     {}
func (noopObserver) QueueDepth(int, int)          {}
func (noopObserver) UnitDispatched(time.Duration) {}
func (noopObserver) UnitDone()                    {}
func (noopObserver) UnitRetried()                 {}

// defaultUnitRetries is the re-dispatch budget of a unit orphaned by
// a dead worker; re-dispatch pauses follow core.NextBackoff.
const defaultUnitRetries = 3

// Coordinator executes the evaluation across a pool of worker
// processes. It is the fleet counterpart of core.Runner: machines (by
// simulated-profile name) × experiment groups become work units,
// workers execute them in any order, and results merge in unit order so
// the database encodes byte-identically to a serial run.
type Coordinator struct {
	// Machines are the simulated-machine profile names, in merge order.
	Machines []string
	// Catalog resolves the names; nil means the shipped default
	// (compiled built-ins plus embedded data files). Profiles that are
	// not compiled into the binary are shipped to workers inline on the
	// unit frame, so a fleet of stock workers can run file-loaded or
	// calibration-candidate machines.
	Catalog *machines.Catalog
	// Opts applies to every unit, exactly as a serial Suite would see
	// it (sweep-heavy units additionally fan their points across
	// GOMAXPROCS goroutines inside the worker).
	Opts core.Options
	// Only restricts the run to these experiment IDs (nil = all);
	// Extended adds the §7 experiments.
	Only     map[string]bool
	Extended bool
	// Events receives the merged event stream of every worker plus the
	// coordinator's machine bracketing events; nil discards it. Sinks
	// must be concurrency-safe (the provided ones are).
	Events core.EventSink
	// Workers is how many local worker processes to spawn (re-execs of
	// the current binary). Connect lists remote worker daemons
	// (Serve / `lmbench -fleet-listen`) to dial into the pool.
	Workers int
	Connect []string
	// Timeout, Retries, RetryBackoff, MaxRSD and QualityRetries are
	// forwarded to each worker's Suite, so in-worker behavior matches a
	// serial run; see core.Suite.
	Timeout        time.Duration
	Retries        int
	RetryBackoff   time.Duration
	MaxRSD         float64
	QualityRetries int
	// UnitRetries is how many times a unit orphaned by a dead worker is
	// re-dispatched (with core.NextBackoff pauses) before the
	// run fails; 0 means the default of 3. This budget is consumed by
	// worker deaths only — an error the experiment itself reports is
	// already retried inside the worker under Retries and aborts the
	// run, matching serial semantics.
	UnitRetries int
	// Journal, when non-nil, receives one PR-2 format record per
	// completed unit as it finishes; Resume replays a previous journal
	// (from a fleet or serial run — the formats are identical) instead
	// of re-executing completed units.
	Journal *core.JournalWriter
	Resume  *core.JournalReplay
	// Cache, when non-nil, is the content-addressed unit cache: every
	// unit not already served by Resume is looked up before dispatch,
	// and hits restore their fragments without touching a worker — a
	// fully-warm run starts zero workers. Fresh results are stored as
	// their units complete. Hits merge at the unit's position in merge
	// order, so cold and warm runs are byte-identical. See
	// internal/unitcache.
	Cache core.UnitCache
	// PeerTimeout is the idle read deadline on remote worker
	// connections: a daemon silent for this long — workers heartbeat
	// every 5s while executing — is declared dead and its unit
	// re-dispatched. Zero means the DialOptions default (60s); negative
	// disables. While a remote worker sits idle the coordinator pings it
	// every idlePingInterval so the daemon's own idle timeout doesn't
	// reap a healthy session between units.
	PeerTimeout time.Duration
	// DialRetries and DialBackoff shape the capped-backoff retry when
	// dialing Connect addresses (see DialOptions); zero means defaults.
	DialRetries int
	DialBackoff time.Duration
	// WrapConn, when set, wraps every dialed remote connection — the
	// chaos seam (netfaults installs its injector here).
	WrapConn func(net.Conn) net.Conn
	// Obs sees scheduling activity; nil means unobserved.
	Obs Observer

	mu  sync.Mutex
	cur *run
}

// unitResult is one unit's terminal state.
type unitResult struct {
	done    bool
	entries []results.Entry
	skipped []string
	err     error
}

// run is the state of one Coordinator.Run invocation.
type run struct {
	c      *Coordinator
	ctx    context.Context
	cancel context.CancelFunc
	sink   core.EventSink
	obs    Observer
	log    core.UnitLog
	opts   core.Options
	units  []core.WorkUnit
	groups map[string]core.ExperimentGroup
	// wireProfiles holds, per machine, the profile to ship on unit
	// frames (nil entry / missing key = compiled built-in, resolved by
	// name on the worker).
	wireProfiles map[string]*machines.Profile
	queue        chan int
	wg           sync.WaitGroup

	mu           sync.Mutex
	res          []unitResult
	attempts     []int
	backoff      []time.Duration
	enqueuedAt   []time.Time
	outstanding  int
	queued       int
	inflight     int
	liveWorkers  int
	spawnSeq     int
	workers      []workerConn
	pending      map[string]int // units per machine not yet terminal
	machineT     map[string]time.Time
	machineBegun map[string]bool
	doneOnce     sync.Once
	done         chan struct{}
}

func (c *Coordinator) unitRetries() int {
	if c.UnitRetries > 0 {
		return c.UnitRetries
	}
	return defaultUnitRetries
}

// Run executes the suite on every machine through the worker pool and
// merges all entries into db, returning each machine's skipped
// experiments keyed by name. The semantics mirror core.Runner.Run: on
// failure the first error in unit order is returned wrapped with the
// machine's name, and everything that completed is still merged.
func (c *Coordinator) Run(ctx context.Context, db *results.DB) (map[string][]string, error) {
	opts, err := c.Opts.Normalize()
	if err != nil {
		return nil, err
	}
	if len(c.Machines) == 0 {
		return map[string][]string{}, nil
	}
	cat := c.Catalog
	if cat == nil {
		cat = machines.Default()
	}
	// Profiles outside the compiled catalog travel on the unit frame;
	// resolve them once up front so every dispatch of a unit ships the
	// same bytes.
	wireProfiles := make(map[string]*machines.Profile)
	for _, name := range c.Machines {
		p, ok := cat.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fleet: unknown simulated machine %q", name)
		}
		if compiled, ok := machines.ByName(name); !ok || !reflect.DeepEqual(compiled, p) {
			pc := p
			wireProfiles[name] = &pc
		}
	}
	if c.Workers < 0 {
		return nil, fmt.Errorf("fleet: negative worker count %d", c.Workers)
	}
	if c.Workers == 0 && len(c.Connect) == 0 {
		return nil, errors.New("fleet: coordinator needs at least one worker")
	}

	exps := core.Experiments()
	if c.Extended {
		exps = append(exps, core.Extensions()...)
	}
	groups := core.GroupExperiments(exps, c.Only)
	byKey := make(map[string]core.ExperimentGroup, len(groups))
	for _, g := range groups {
		byKey[g.Key] = g
	}
	units := core.UnitsFor(c.Machines, groups)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{
		c: c, ctx: runCtx, cancel: cancel,
		sink: core.SinkOrDiscard(c.Events), obs: obsOrNoop(c.Obs),
		log:  core.UnitLog{Resume: c.Resume, Cache: c.Cache, Journal: c.Journal, Mode: opts.SweepMode},
		opts: opts, units: units, groups: byKey,
		wireProfiles: wireProfiles,
		// Buffered past the total attempt budget so a delayed
		// re-enqueue never blocks and never races a shutdown.
		queue:      make(chan int, len(units)*(c.unitRetries()+1)+1),
		res:        make([]unitResult, len(units)),
		attempts:   make([]int, len(units)),
		backoff:    make([]time.Duration, len(units)),
		enqueuedAt: make([]time.Time, len(units)),
		pending:    map[string]int{}, machineT: map[string]time.Time{},
		machineBegun: map[string]bool{},
		outstanding:  len(units),
		done:         make(chan struct{}),
	}
	for _, u := range units {
		r.pending[u.Machine]++
	}
	c.mu.Lock()
	c.cur = r
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.cur = nil
		c.mu.Unlock()
	}()

	// Serve what the resume journal or the unit cache already holds, in
	// unit order and before any dispatch — the fleet version of the
	// suite's replay-at-iteration-point rule. A fully-warm run starts no
	// worker. A refused replay or a failed journal write aborts the run
	// exactly as it would in complete(); no workers exist yet, so
	// failing the unit and cancelling is enough.
	for i, u := range units {
		rec, kind, err := r.log.Lookup(u.Machine, u.Key)
		if err == nil && kind != "" {
			err = r.log.Settle(rec, kind)
		}
		if err != nil {
			r.settle(i, unitResult{err: err}, false)
			break
		}
		if kind == "" {
			continue
		}
		g := byKey[u.Key]
		r.beginMachine(u.Machine)
		r.sink.Event(core.Event{
			Kind: kind, Time: time.Now(), Machine: u.Machine,
			Experiment: g.Exp.ID, Title: g.Exp.Title, Entries: len(rec.Entries),
		})
		res := unitResult{entries: rec.Entries}
		if rec.Skipped {
			res = unitResult{skipped: []string{g.Exp.ID}}
		}
		r.settle(i, res, false)
	}

	// Queue the remainder and start the pool.
	remaining := 0
	for i := range units {
		r.mu.Lock()
		queuedAlready := r.res[i].done
		r.mu.Unlock()
		if !queuedAlready {
			remaining++
			r.enqueue(i, 0)
		}
	}
	if remaining > 0 {
		local := c.Workers
		if local > remaining {
			local = remaining
		}
		for i := 0; i < local; i++ {
			if err := r.startLocalWorker(); err != nil {
				cancel()
				r.shutdown()
				return nil, err
			}
		}
		for _, addr := range c.Connect {
			w, err := DialWith(runCtx, addr, DialOptions{
				Retries: c.DialRetries, Backoff: c.DialBackoff,
				PeerTimeout: c.PeerTimeout, WrapConn: c.WrapConn,
			})
			if err != nil {
				cancel()
				r.shutdown()
				return nil, err
			}
			r.startWorker(w, false)
		}
	}

	select {
	case <-r.done:
	case <-runCtx.Done():
	}
	cancel()
	r.shutdown()

	return r.merge(ctx, db)
}

// WorkerPIDs returns the process IDs of the live local workers of the
// run in progress (empty otherwise). Exposed for operational tooling
// and for the tests that kill a worker mid-run to prove re-dispatch.
func (c *Coordinator) WorkerPIDs() []int {
	c.mu.Lock()
	r := c.cur
	c.mu.Unlock()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var pids []int
	for _, w := range r.workers {
		if p := w.pid(); p > 0 {
			pids = append(pids, p)
		}
	}
	return pids
}

// enqueue makes unit i dispatchable after delay. The queue channel is
// buffered past the total attempt budget, so sends never block; a
// delayed send can only fire while its unit is still outstanding, so it
// can never race run teardown into a closed channel (the channel is
// never closed at all — workers drain it until the run context ends).
func (r *run) enqueue(i int, delay time.Duration) {
	r.mu.Lock()
	r.enqueuedAt[i] = time.Now()
	r.queued++
	q, f := r.queued, r.inflight
	r.mu.Unlock()
	r.obs.QueueDepth(q, f)
	if delay <= 0 {
		r.queue <- i
		return
	}
	time.AfterFunc(delay, func() {
		select {
		case <-r.ctx.Done():
		default:
			r.queue <- i
		}
	})
}

// startLocalWorker spawns one worker process and its drive loop.
func (r *run) startLocalWorker() error {
	r.mu.Lock()
	r.spawnSeq++
	name := fmt.Sprintf("w%d", r.spawnSeq)
	r.mu.Unlock()
	w, err := spawnWorker(name)
	if err != nil {
		return err
	}
	r.startWorker(w, true)
	return nil
}

// startWorker registers w in the pool and starts its drive loop.
func (r *run) startWorker(w workerConn, local bool) {
	r.mu.Lock()
	r.workers = append(r.workers, w)
	r.liveWorkers++
	r.mu.Unlock()
	r.obs.WorkerUp(w.id())
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.workerLoop(w, local)
	}()
}

// idlePingInterval is how often the coordinator pings a remote worker
// that has no unit in flight, well inside the daemon's 60s idle
// timeout.
const idlePingInterval = 10 * time.Second

// workerLoop pulls units off the queue and drives them through w until
// the run ends or the worker dies. Remote workers are pinged while
// idle; a failed ping retires the worker exactly as a failed dispatch
// would, except there is no unit to re-queue.
func (r *run) workerLoop(w workerConn, local bool) {
	var pingC <-chan time.Time
	if !local {
		t := time.NewTicker(idlePingInterval)
		defer t.Stop()
		pingC = t.C
	}
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-pingC:
			if err := w.send(&wireMsg{Type: msgPing}); err != nil {
				r.workerGone(w, err)
				return
			}
		case i := <-r.queue:
			r.mu.Lock()
			if r.res[i].done { // late duplicate enqueue; nothing to do
				r.mu.Unlock()
				continue
			}
			wait := time.Since(r.enqueuedAt[i])
			r.queued--
			r.inflight++
			q, f := r.queued, r.inflight
			r.mu.Unlock()
			r.obs.QueueDepth(q, f)
			r.obs.UnitDispatched(wait)
			if err := r.driveUnit(w, i); err != nil {
				// Transport failure: the worker is dead. Put the unit
				// back under the retry policy, replace the worker, and
				// retire this loop.
				r.mu.Lock()
				r.inflight--
				r.liveWorkers--
				live := r.liveWorkers
				q, f = r.queued, r.inflight
				r.mu.Unlock()
				r.obs.QueueDepth(q, f)
				r.obs.WorkerDown(w.id(), err)
				w.close()
				r.redispatch(i, err, live, local)
				return
			}
		}
	}
}

// workerGone retires a worker that died with no unit in flight (an
// idle ping failed). If it was the last worker and units are still
// queued, the run cannot finish — the next queued unit is failed so
// the run terminates instead of hanging.
func (r *run) workerGone(w workerConn, cause error) {
	r.mu.Lock()
	r.liveWorkers--
	live := r.liveWorkers
	r.mu.Unlock()
	r.obs.WorkerDown(w.id(), cause)
	w.close()
	if live > 0 {
		return
	}
	select {
	case i := <-r.queue:
		r.mu.Lock()
		r.queued--
		r.inflight++
		r.mu.Unlock()
		r.fail(i, fmt.Errorf("fleet: worker pool died: %w", cause))
	default:
	}
}

// driveUnit sends unit i to w and pumps its frames until the result
// arrives. A non-nil error means the transport failed and the unit's
// fate is unknown — the caller re-dispatches it.
func (r *run) driveUnit(w workerConn, i int) error {
	u := r.units[i]
	r.beginMachine(u.Machine)
	err := w.send(&wireMsg{
		Type: msgUnit, V: protoVersion, Seq: u.Seq,
		Machine: u.Machine, Key: u.Key, IDs: u.IDs,
		Profile: r.wireProfiles[u.Machine],
		Opts:    &r.opts, Extended: r.c.Extended,
		Timeout: r.c.Timeout, Retries: r.c.Retries, RetryBackoff: r.c.RetryBackoff,
		MaxRSD: r.c.MaxRSD, QualityRetries: r.c.QualityRetries,
	})
	if err != nil {
		return err
	}
	skipErr := ""
	for {
		m, err := w.recv()
		if err != nil {
			return err
		}
		switch m.Type {
		case msgPing:
			// In-unit heartbeat; its arrival already re-armed the idle
			// deadline.
		case msgEvent:
			if m.Event != nil {
				if m.Event.Kind == core.ExperimentSkipped {
					skipErr = m.Event.Err
				}
				r.sink.Event(*m.Event)
			}
		case msgResult:
			if m.Seq != u.Seq {
				return fmt.Errorf("fleet: result for unit %d, want %d", m.Seq, u.Seq)
			}
			return r.complete(i, m, skipErr)
		default:
			return fmt.Errorf("fleet: unexpected %q frame from worker", m.Type)
		}
	}
}

// complete records unit i's result frame. Only transport problems
// return an error (there are none here); a unit whose experiment failed
// is terminal and aborts the run, matching serial semantics.
func (r *run) complete(i int, m *wireMsg, skipErr string) error {
	u := r.units[i]
	if m.Err != "" {
		r.fail(i, errors.New(m.Err))
		return nil
	}
	// Commit before marking done: a coordinator killed in between
	// simply re-runs the unit.
	rec := core.JournalRecord{Machine: u.Machine, Key: u.Key, Entries: m.Entries}
	if len(m.Skipped) > 0 {
		rec = core.JournalRecord{Machine: u.Machine, Key: u.Key, Skipped: true, Err: skipErr}
	}
	if err := r.log.Commit(rec); err != nil {
		r.fail(i, err)
		return nil
	}
	r.settle(i, unitResult{entries: m.Entries, skipped: m.Skipped}, true)
	return nil
}

// fail marks dispatched unit i terminally failed; see settle.
func (r *run) fail(i int, err error) { r.settle(i, unitResult{err: err}, true) }

// settle records unit i's terminal result and retires the unit;
// dispatched says it was in flight (units served before dispatch never
// were). A failed unit aborts the run, the fleet version of the
// scheduler's cancel-the-pool-on-error rule.
func (r *run) settle(i int, res unitResult, dispatched bool) {
	res.done = true
	r.mu.Lock()
	r.res[i] = res
	if dispatched {
		r.inflight--
	}
	q, f := r.queued, r.inflight
	r.mu.Unlock()
	if dispatched {
		r.obs.QueueDepth(q, f)
	}
	if res.err != nil {
		r.finishUnit(r.units[i], res.err.Error())
		r.cancel()
		return
	}
	r.obs.UnitDone()
	r.finishUnit(r.units[i], "")
}

// redispatch re-queues unit i after its worker died, with doubling
// backoff; when the attempt budget is spent the run fails. live is the
// surviving worker count; a local death also spawns a replacement so
// the pool keeps its size (re-dispatch would deadlock with zero
// workers).
func (r *run) redispatch(i int, cause error, live int, local bool) {
	u := r.units[i]
	r.mu.Lock()
	if r.res[i].done {
		r.mu.Unlock()
		return
	}
	r.attempts[i]++
	attempts := r.attempts[i]
	r.backoff[i] = core.NextBackoff(r.backoff[i])
	delay := r.backoff[i]
	r.mu.Unlock()
	if attempts > r.c.unitRetries() {
		r.fail(i, fmt.Errorf("fleet: unit %s/%s lost its worker %d times: %w",
			u.Machine, u.Key, attempts, cause))
		return
	}
	r.obs.UnitRetried()
	r.enqueue(i, delay)
	if local && r.ctx.Err() == nil {
		if err := r.startLocalWorker(); err != nil && live == 0 {
			// No workers left and no replacement: the queue would
			// never drain.
			r.fail(i, fmt.Errorf("fleet: worker pool died: %w", err))
		}
	} else if !local && live == 0 {
		// The last worker was remote; there is no respawning a daemon
		// the coordinator didn't start.
		r.fail(i, fmt.Errorf("fleet: worker pool died: %w", cause))
	}
}

// beginMachine emits MachineStarted once per machine, at its first
// dispatched or replayed unit.
func (r *run) beginMachine(machine string) {
	r.mu.Lock()
	if r.machineBegun[machine] {
		r.mu.Unlock()
		return
	}
	r.machineBegun[machine] = true
	r.machineT[machine] = time.Now()
	r.mu.Unlock()
	r.sink.Event(core.Event{Kind: core.MachineStarted, Time: time.Now(), Machine: machine})
}

// finishUnit retires one unit: machine bookkeeping, the run-complete
// gate, and MachineFinished when the machine's last unit lands.
func (r *run) finishUnit(u core.WorkUnit, errText string) {
	r.mu.Lock()
	r.pending[u.Machine]--
	machineDone := r.pending[u.Machine] == 0
	start := r.machineT[u.Machine]
	r.outstanding--
	allDone := r.outstanding == 0
	r.mu.Unlock()
	if machineDone {
		ev := core.Event{
			Kind: core.MachineFinished, Time: time.Now(), Machine: u.Machine,
			Duration: time.Since(start), Err: errText,
		}
		r.sink.Event(ev)
	}
	if allDone {
		r.doneOnce.Do(func() { close(r.done) })
	}
}

// shutdown tears the pool down: every worker is killed or disconnected
// (which unblocks any pending recv) and the drive loops are joined.
func (r *run) shutdown() {
	r.mu.Lock()
	workers := append([]workerConn(nil), r.workers...)
	r.mu.Unlock()
	for _, w := range workers {
		w.close()
	}
	r.wg.Wait()
}

// merge assembles the final database and skip map in unit order — the
// serial iteration order, which is what makes fleet bytes identical to
// serial bytes — and reports the first error in that order.
func (r *run) merge(ctx context.Context, db *results.DB) (map[string][]string, error) {
	skipped := map[string][]string{}
	var firstErr error
	for i, u := range r.units {
		res := r.res[i]
		if !res.done {
			continue // abandoned when the run aborted
		}
		if res.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", u.Machine, res.err)
			}
			continue
		}
		for _, e := range res.entries {
			if err := db.Add(e); err != nil {
				return skipped, fmt.Errorf("%s/%s: add %q: %w", u.Machine, u.Key, e.Benchmark, err)
			}
		}
		if len(res.skipped) > 0 {
			skipped[u.Machine] = append(skipped[u.Machine], res.skipped...)
		}
	}
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return skipped, firstErr
}

func obsOrNoop(o Observer) Observer {
	if o == nil {
		return noopObserver{}
	}
	return o
}
