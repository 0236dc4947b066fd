package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
	"repro/internal/rpcx"
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
	// QueueDepth reports the current number of units awaiting a worker
	// and in flight on one, whenever either changes.
	QueueDepth(queued, inflight int)
	// UnitDispatched reports how long a unit waited before being sent
	// to a worker: from its lookup miss, or from its re-enqueue after a
	// worker death.
	UnitDispatched(wait time.Duration)
	// UnitDone reports one unit completing (run, skipped, replayed or
	// served from the unit cache), after its journal record is written.
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
// processes. It is the fleet counterpart of core.Runner and runs the
// same executor (core.Suite.RunRemote): machines (by simulated-profile
// name) × experiment groups become work units, Workers+len(Connect)
// slots hand fresh units to the worker processes, and results merge in
// unit order, so the database, the journal and the event stream's
// machine brackets are the in-process run's.
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
	// run's machine events; nil discards it. Sinks must be
	// concurrency-safe (the provided ones are).
	Events core.EventSink
	// Workers is how many local worker processes to spawn (re-execs of
	// the current binary). Connect lists remote worker daemons
	// (ServeWith / `lmbench -fleet-listen`) to dial into the pool.
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
	// Journal, when non-nil, receives one record per completed unit, in
	// unit order; Resume replays a previous journal (from a fleet or
	// serial run — the formats are identical) instead of re-executing
	// completed units.
	Journal *core.JournalWriter
	Resume  *core.JournalReplay
	// Cache, when non-nil, is the content-addressed unit cache: every
	// unit not already served by Resume is looked up before dispatch,
	// and hits restore their fragments without touching a worker — a
	// fully-warm run, like a refused resume, starts zero workers. Fresh
	// results are stored as their units merge, at the unit's position in
	// merge order, so cold and warm runs are byte-identical. See
	// internal/unitcache.
	Cache core.UnitCache
	// Dial configures how Connect addresses are dialed (see DialWith):
	// capped-backoff retries, the chaos seam (WrapConn), and the idle
	// read deadline on remote worker connections. A daemon silent for
	// PeerTimeout — workers heartbeat every 5s while executing — is
	// declared dead and its unit re-dispatched; zero means 60s. While a
	// remote worker sits idle the coordinator pings it every
	// idlePingInterval so the daemon's own idle timeout doesn't reap a
	// healthy session between units.
	Dial rpcx.DialOptions
	// Obs sees scheduling activity; nil means unobserved.
	Obs Observer

	mu  sync.Mutex
	cur *run
}

// ticket is one fresh unit an executor slot handed to the worker
// loops. It stays open while the slot waits; it closes when its result
// arrives, its retry budget runs out, the pool dies, or the slot stops
// waiting — and a closed ticket's late result is dropped. Its fields
// other than u and res are guarded by run.mu.
type ticket struct {
	u        core.WorkUnit
	enqueued time.Time
	attempts int
	backoff  time.Duration
	res      chan outcome // buffered: receives the one terminal outcome
	closed   bool
}

// outcome is a unit's terminal state.
type outcome struct {
	rec core.JournalRecord
	err error
}

// run is the state of one Coordinator.Run invocation: the worker pool
// and the queue that feeds it.
type run struct {
	c    *Coordinator
	ctx  context.Context
	sink core.EventSink
	obs  Observer
	// wireProfiles holds, per machine, the profile to ship on unit
	// frames (nil entry / missing key = compiled built-in, resolved by
	// name on the worker).
	wireProfiles map[string]*machines.Profile
	queue        chan *ticket
	wg           sync.WaitGroup
	grown        sync.Mutex // serializes growing the pool; guards dialed, spawned
	dialed       bool
	spawned      int

	mu               sync.Mutex
	open             map[*ticket]bool // tickets whose slot still waits
	queued, inflight int
	live, localLive  int
	workers          []*worker
}

// Run executes the suite on every machine through the worker pool and
// merges all entries into db, returning each machine's skipped
// experiments keyed by name. The semantics are core.Runner.Run's: on
// failure the lowest failing unit's error is returned wrapped with its
// machine's name, and every earlier unit is still merged.
func (c *Coordinator) Run(ctx context.Context, db *results.DB) (map[string][]string, error) {
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
	width := c.Workers + len(c.Connect)

	runCtx, cancel := context.WithCancel(ctx)
	r := &run{
		c: c, ctx: runCtx,
		sink: core.SinkOrDiscard(c.Events), obs: c.Obs,
		wireProfiles: wireProfiles,
		// Every open ticket holds a slot and has at most one queue
		// entry; a ticket its slot dropped leaves at most one stale
		// entry, and no ticket opens after a drop. So sends never wait.
		queue: make(chan *ticket, 2*width+1),
		open:  map[*ticket]bool{},
	}
	if r.obs == nil {
		r.obs = noopObserver{}
	}
	c.mu.Lock()
	c.cur = r
	c.mu.Unlock()
	defer func() {
		// Tear the pool down: killing or disconnecting every worker
		// unblocks any pending recv, and the drive loops are joined.
		cancel()
		r.mu.Lock()
		workers := append([]*worker(nil), r.workers...)
		r.mu.Unlock()
		for _, w := range workers {
			w.close()
		}
		r.wg.Wait()
		c.mu.Lock()
		c.cur = nil
		c.mu.Unlock()
	}()
	return (&core.Suite{
		Opts: c.Opts, Events: r.sink, Only: c.Only, Extended: c.Extended,
		MaxRSD: c.MaxRSD, QualityRetries: c.QualityRetries,
		Journal: c.Journal, Resume: c.Resume, Cache: c.Cache,
	}).RunRemote(runCtx, db, c.Machines, width, r.exec, r.obs.UnitDone)
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
		if w.pid > 0 {
			pids = append(pids, w.pid)
		}
	}
	return pids
}

// exec is one executor slot's unit: it grows the pool if the unit needs
// a worker, queues the unit, and waits for its terminal outcome. A
// slot that stops waiting — a lower unit failed, or the run ended —
// closes the ticket, so its worker's late result is dropped. A pool
// that has no worker left and cannot grow — its remote workers died
// while idle — fails the unit instead of queueing it for no one.
func (r *run) exec(ctx context.Context, u core.WorkUnit, missed time.Time) (core.JournalRecord, error) {
	t := &ticket{u: u, res: make(chan outcome, 1)}
	r.mu.Lock()
	r.open[t] = true
	r.mu.Unlock()
	err := r.grow()
	r.mu.Lock()
	if err == nil && r.live == 0 {
		err = errors.New("fleet: worker pool died")
	}
	r.mu.Unlock()
	if err != nil {
		r.retire(t, nil)
		return core.JournalRecord{}, err
	}
	r.enqueue(t, missed, 0)
	select {
	case o := <-t.res:
		return o.rec, o.err
	case <-ctx.Done():
		r.retire(t, nil)
		return core.JournalRecord{}, ctx.Err()
	}
}

// grow starts the workers open units need: the first time, it dials
// every Connect address; then it spawns local workers, up to Workers,
// until there is a worker per open unit.
func (r *run) grow() error {
	r.grown.Lock()
	defer r.grown.Unlock()
	if !r.dialed {
		r.dialed = true
		for _, addr := range r.c.Connect {
			w, err := DialWith(r.ctx, addr, r.c.Dial)
			if err != nil {
				return err
			}
			r.startWorker(w, false)
		}
	}
	for {
		r.mu.Lock()
		short := r.localLive < r.c.Workers && r.live < len(r.open)
		r.mu.Unlock()
		if !short {
			return nil
		}
		r.spawned++
		w, err := spawnWorker(fmt.Sprintf("w%d", r.spawned))
		if err != nil {
			return err
		}
		r.startWorker(w, true)
	}
}

// retire closes t and hands it o (nil: the slot stopped waiting),
// unless it is already closed.
func (r *run) retire(t *ticket, o *outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	delete(r.open, t)
	if o != nil {
		t.res <- *o
	}
}

// enqueue makes t dispatchable after delay, counting its wait from
// since. A send still pending when the run ends is dropped.
func (r *run) enqueue(t *ticket, since time.Time, delay time.Duration) {
	r.mu.Lock()
	t.enqueued = since
	r.mu.Unlock()
	r.count(1, 0)
	send := func() {
		select {
		case r.queue <- t:
		case <-r.ctx.Done():
		}
	}
	if delay > 0 {
		time.AfterFunc(delay, send)
	} else {
		send()
	}
}

// startWorker registers w in the pool and starts its drive loop.
func (r *run) startWorker(w *worker, local bool) {
	r.mu.Lock()
	r.workers = append(r.workers, w)
	r.live++
	if local {
		r.localLive++
	}
	r.mu.Unlock()
	r.obs.WorkerUp(w.id)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.workerLoop(w, local)
	}()
}

// idlePingInterval is how often the coordinator pings a remote worker
// that has no unit in flight, well inside the daemon's 60s idle
// timeout. Tests shorten it.
var idlePingInterval = 10 * time.Second

// workerLoop pulls units off the queue and drives them through w until
// the run ends or the worker dies. Remote workers are pinged while
// idle; a failed ping retires the worker exactly as a failed dispatch
// would, except there is no unit to re-queue.
func (r *run) workerLoop(w *worker, local bool) {
	defer w.close()
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
			if err := w.Send(&wireMsg{Type: msgPing}); err != nil {
				r.lost(w, local, nil, err)
				return
			}
		case t := <-r.queue:
			r.mu.Lock()
			open, wait := !t.closed, time.Since(t.enqueued)
			r.mu.Unlock()
			if !open {
				r.count(-1, 0)
				continue
			}
			r.count(-1, 1)
			r.obs.UnitDispatched(wait)
			o, err := r.driveUnit(w, t.u)
			r.count(0, -1)
			if err != nil {
				// Transport failure: the worker is dead and the unit's
				// fate unknown.
				r.lost(w, local, t, err)
				return
			}
			r.retire(t, &o)
		}
	}
}

// count moves the queued and in-flight unit counts by dq and df and
// reports the new depth.
func (r *run) count(dq, df int) {
	r.mu.Lock()
	r.queued += dq
	r.inflight += df
	q, f := r.queued, r.inflight
	r.mu.Unlock()
	r.obs.QueueDepth(q, f)
}

// lost retires a dead worker and re-queues its unit t (nil for an idle
// worker) after a doubling backoff, or fails the unit once its retry
// budget is spent. The pool then grows back — a local worker is
// replaced — and a pool left without any worker fails every open unit
// instead of hanging.
func (r *run) lost(w *worker, local bool, t *ticket, cause error) {
	r.mu.Lock()
	r.live--
	if local {
		r.localLive--
	}
	var attempts int
	var delay time.Duration
	if t != nil && !t.closed {
		t.attempts++
		t.backoff = core.NextBackoff(t.backoff)
		attempts, delay = t.attempts, t.backoff
	}
	r.mu.Unlock()
	r.obs.WorkerDown(w.id, cause)
	budget := r.c.UnitRetries
	if budget <= 0 {
		budget = defaultUnitRetries
	}
	switch {
	case attempts > budget:
		r.retire(t, &outcome{err: fmt.Errorf("fleet: unit %s/%s lost its worker %d times: %w",
			t.u.Machine, t.u.Key, attempts, cause)})
	case attempts > 0:
		r.obs.UnitRetried()
		r.enqueue(t, time.Now(), delay)
	}
	if r.ctx.Err() != nil {
		return
	}
	err := r.grow()
	r.mu.Lock()
	var open []*ticket
	if r.live == 0 {
		for t := range r.open {
			open = append(open, t)
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = cause
	}
	for _, t := range open {
		r.retire(t, &outcome{err: fmt.Errorf("fleet: worker pool died: %w", err)})
	}
}

// driveUnit sends unit u to w and pumps its frames until the result
// arrives. A non-nil error means the transport failed and the unit's
// fate is unknown — the caller re-dispatches it; a unit whose
// experiment failed is a terminal outcome, matching serial semantics.
func (r *run) driveUnit(w *worker, u core.WorkUnit) (outcome, error) {
	err := w.Send(&wireMsg{
		Type: msgUnit, V: protoVersion, Seq: u.Seq,
		Machine: u.Machine, Key: u.Key, IDs: u.IDs,
		Profile: r.wireProfiles[u.Machine],
		Opts:    &r.c.Opts, Extended: r.c.Extended,
		Timeout: r.c.Timeout, Retries: r.c.Retries, RetryBackoff: r.c.RetryBackoff,
		MaxRSD: r.c.MaxRSD, QualityRetries: r.c.QualityRetries,
	})
	if err != nil {
		return outcome{}, err
	}
	skipErr := ""
	for {
		var m wireMsg
		if err := w.Recv(&m); err != nil {
			return outcome{}, err
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
				return outcome{}, fmt.Errorf("fleet: result for unit %d, want %d", m.Seq, u.Seq)
			}
			if m.Err != "" {
				return outcome{err: errors.New(m.Err)}, nil
			}
			rec := core.JournalRecord{Machine: u.Machine, Key: u.Key, Entries: m.Entries}
			if len(m.Skipped) > 0 {
				rec = core.JournalRecord{Machine: u.Machine, Key: u.Key, Skipped: true, Err: skipErr}
			}
			return outcome{rec: rec}, nil
		default:
			return outcome{}, fmt.Errorf("fleet: unexpected %q frame from worker", m.Type)
		}
	}
}
