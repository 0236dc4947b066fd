package main

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

// recorder collects the traced pass's per-layer measurements. It
// attaches only at boundaries the benchmark already crosses: event
// sinks and their timing.Probe attempt probes, the fleet and unit-cache
// observers, the store server's Registry, and the thin timing wrappers
// of core.Machine and core.UnitCache below. Nothing inside the program
// changes, and paper-cold's hash check proves the database does not
// either.
type recorder struct {
	builds int
	buildS float64
	eval   *evalRec
	cache  *cacheRec
	fleet  *fleetRec
	fit    *fitRec
	store  *burst

	journalRecords int
	journalBytes   int64
	evals          int
	fitS           float64
	encodeS        float64
	dbBytes        int
	overhead       float64
}

func newRecorder() *recorder {
	return &recorder{eval: newEvalRec(), cache: &cacheRec{}, fit: &fitRec{}}
}

// built records one machine build made by the benchmark: set-up's and
// calibrate-fit's fitted profiles. The candidate builds inside
// calibrate.Calibrate have no seam outside the calibrate package and
// are not counted. A nil recorder records nothing.
func (r *recorder) built(d time.Duration) {
	if r == nil {
		return
	}
	r.builds++
	r.buildS += d.Seconds()
}

func (r *recorder) fitted(res *calibrate.Result) {
	r.evals += res.Evals
	r.fitS += res.Elapsed.Seconds()
}

// journal reads back the cold fleet pass's journal.
func (r *recorder) journal(path string, bytesWritten int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	replay, err := core.ReadJournal(f)
	if err != nil {
		return err
	}
	r.journalRecords, r.journalBytes = replay.Len(), bytesWritten
	return nil
}

// encode times the canonical encoding of the traced pass's database.
func (r *recorder) encode(db *results.DB) error {
	var buf bytes.Buffer
	start := time.Now()
	if err := db.Encode(&buf); err != nil {
		return err
	}
	r.encodeS, r.dbBytes = time.Since(start).Seconds(), buf.Len()
	return nil
}

// unitBuckets names the experiment groups the paper-cold time is
// dominated by, keyed by the experiment ID a group's events carry.
var unitBuckets = map[string]string{
	"figure1": "mem_hier", "table6": "mem_hier", "table2": "table2", "table5": "table5",
	"figure2": "ctx", "table10": "ctx", "table3": "table3",
}

func unitBucket(id string) string {
	if b, ok := unitBuckets[id]; ok {
		return b
	}
	return "rest"
}

// The simulator layers behind core.Machine's operation sets.
const (
	opMem  = iota // simmem
	opOS          // simos
	opNet         // simnet
	opFS          // simfs
	opDisk        // simdisk
	numOps
)

var opNames = [numOps]string{"mem", "os", "net", "fs", "disk"}

type opStat struct{ calls, ns atomic.Int64 }

func (o *opStat) done(start time.Time) {
	o.calls.Add(1)
	o.ns.Add(int64(time.Since(start)))
}

func (o *opStat) seconds() float64 { return float64(o.ns.Load()) / 1e9 }

// evalRec records the traced in-process evaluation: unit events and
// their simulator counter deltas, harness probes, and the time spent
// inside each simulator layer.
type evalRec struct {
	mu                     sync.Mutex
	units, retries, failed int
	unitS                  map[string]float64
	sim                    map[string]int64

	batches, calibrations atomic.Int64
	ops                   [numOps]opStat
}

func newEvalRec() *evalRec {
	return &evalRec{unitS: map[string]float64{}, sim: map[string]int64{}}
}

// Event implements core.EventSink.
func (r *evalRec) Event(e core.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e.Kind {
	case core.ExperimentFinished:
		r.units++
		r.unitS[unitBucket(e.Experiment)] += e.Duration.Seconds()
		for k, v := range e.Sim {
			r.sim[k] += v
		}
	case core.ExperimentSkipped, core.ExperimentCached, core.ExperimentReplayed:
		r.units++
	case core.ExperimentFailed:
		r.units++
		r.failed++
	case core.ExperimentRetried:
		r.retries++
	}
}

// AttemptProbe implements core.AttemptProber.
func (r *evalRec) AttemptProbe(string, string, int) timing.Probe { return harnessProbe{r} }

type harnessProbe struct{ r *evalRec }

func (p harnessProbe) Calibrated(int64, ptime.Duration) { p.r.calibrations.Add(1) }

func (p harnessProbe) Sample(_ ptime.Duration, _ int64, timed bool) {
	if timed {
		p.r.batches.Add(1)
	}
}

func (r *evalRec) wrap(ms []core.Machine) []core.Machine {
	out := make([]core.Machine, len(ms))
	for i, m := range ms {
		out[i] = &timedMachine{Machine: m, ops: &r.ops}
	}
	return out
}

// timedMachine times every primitive of the wrapped machine into ops,
// per simulator layer. Reset and SimStats pass through, so the suite
// resets and samples the simulator exactly as it would unwrapped.
type timedMachine struct {
	core.Machine
	ops *[numOps]opStat
}

func (m *timedMachine) Reset() {
	if r, ok := m.Machine.(core.Resetter); ok {
		r.Reset()
	}
}

func (m *timedMachine) SimStats() map[string]int64 {
	if s, ok := m.Machine.(core.SimStatser); ok {
		return s.SimStats()
	}
	return nil
}

func (m *timedMachine) Mem() core.MemOps { return timedMem{m.Machine.Mem(), &m.ops[opMem]} }
func (m *timedMachine) OS() core.OSOps   { return timedOS{m.Machine.OS(), &m.ops[opOS]} }
func (m *timedMachine) Net() core.NetOps { return timedNet{m.Machine.Net(), &m.ops[opNet]} }
func (m *timedMachine) FS() core.FSOps   { return timedFS{m.Machine.FS(), &m.ops[opFS]} }

func (m *timedMachine) Disk() core.DiskOps {
	d := m.Machine.Disk()
	if d == nil {
		return nil
	}
	return timedDisk{d, &m.ops[opDisk]}
}

type timedMem struct {
	core.MemOps
	s *opStat
}

func (t timedMem) Alloc(size int64) (core.Region, error) {
	defer t.s.done(time.Now())
	return t.MemOps.Alloc(size)
}

func (t timedMem) Copy(dst, src core.Region, n int64) error {
	defer t.s.done(time.Now())
	return t.MemOps.Copy(dst, src, n)
}

func (t timedMem) CopyUnrolled(dst, src core.Region, n int64) error {
	defer t.s.done(time.Now())
	return t.MemOps.CopyUnrolled(dst, src, n)
}

func (t timedMem) ReadSum(r core.Region, n int64) error {
	defer t.s.done(time.Now())
	return t.MemOps.ReadSum(r, n)
}

func (t timedMem) Write(r core.Region, n int64) error {
	defer t.s.done(time.Now())
	return t.MemOps.Write(r, n)
}

func (t timedMem) NewChase(r core.Region, size, stride int64) (core.Chase, error) {
	start := time.Now()
	c, err := t.MemOps.NewChase(r, size, stride)
	t.s.done(start)
	if err != nil {
		return nil, err
	}
	return timedChase{c, t.s}, nil
}

func (t timedMem) FlushCaches() error {
	defer t.s.done(time.Now())
	return t.MemOps.FlushCaches()
}

type timedChase struct {
	core.Chase
	s *opStat
}

func (t timedChase) Walk(n int64) error {
	defer t.s.done(time.Now())
	return t.Chase.Walk(n)
}

type timedOS struct {
	core.OSOps
	s *opStat
}

func (t timedOS) NullWrite() error     { defer t.s.done(time.Now()); return t.OSOps.NullWrite() }
func (t timedOS) SignalInstall() error { defer t.s.done(time.Now()); return t.OSOps.SignalInstall() }
func (t timedOS) SignalCatch() error   { defer t.s.done(time.Now()); return t.OSOps.SignalCatch() }
func (t timedOS) ForkExit() error      { defer t.s.done(time.Now()); return t.OSOps.ForkExit() }
func (t timedOS) ForkExecExit() error  { defer t.s.done(time.Now()); return t.OSOps.ForkExecExit() }
func (t timedOS) ForkShExit() error    { defer t.s.done(time.Now()); return t.OSOps.ForkShExit() }

func (t timedOS) NewRing(nprocs int, footprint int64) (core.Ring, error) {
	start := time.Now()
	r, err := t.OSOps.NewRing(nprocs, footprint)
	t.s.done(start)
	if err != nil {
		return nil, err
	}
	return timedRing{r, t.s}, nil
}

type timedRing struct {
	core.Ring
	s *opStat
}

func (t timedRing) Pass() error { defer t.s.done(time.Now()); return t.Ring.Pass() }

type timedNet struct {
	core.NetOps
	s *opStat
}

func (t timedNet) PipeTransfer(n int64) error {
	defer t.s.done(time.Now())
	return t.NetOps.PipeTransfer(n)
}
func (t timedNet) PipeRoundTrip() error { defer t.s.done(time.Now()); return t.NetOps.PipeRoundTrip() }
func (t timedNet) TCPTransfer(n int64) error {
	defer t.s.done(time.Now())
	return t.NetOps.TCPTransfer(n)
}
func (t timedNet) TCPRoundTrip() error { defer t.s.done(time.Now()); return t.NetOps.TCPRoundTrip() }
func (t timedNet) UDPRoundTrip() error { defer t.s.done(time.Now()); return t.NetOps.UDPRoundTrip() }
func (t timedNet) RPCTCPRoundTrip() error {
	defer t.s.done(time.Now())
	return t.NetOps.RPCTCPRoundTrip()
}
func (t timedNet) RPCUDPRoundTrip() error {
	defer t.s.done(time.Now())
	return t.NetOps.RPCUDPRoundTrip()
}
func (t timedNet) TCPConnect() error { defer t.s.done(time.Now()); return t.NetOps.TCPConnect() }
func (t timedNet) RemoteTCPTransfer(medium string, n int64) error {
	defer t.s.done(time.Now())
	return t.NetOps.RemoteTCPTransfer(medium, n)
}
func (t timedNet) RemoteRoundTrip(medium string, udp bool) error {
	defer t.s.done(time.Now())
	return t.NetOps.RemoteRoundTrip(medium, udp)
}

type timedFS struct {
	core.FSOps
	s *opStat
}

func (t timedFS) Create(name string) error { defer t.s.done(time.Now()); return t.FSOps.Create(name) }
func (t timedFS) Delete(name string) error { defer t.s.done(time.Now()); return t.FSOps.Delete(name) }
func (t timedFS) WriteFile(name string, size int64) error {
	defer t.s.done(time.Now())
	return t.FSOps.WriteFile(name, size)
}
func (t timedFS) ReadCached(name string, off, n int64) error {
	defer t.s.done(time.Now())
	return t.FSOps.ReadCached(name, off, n)
}
func (t timedFS) MmapRead(name string, off, n int64) error {
	defer t.s.done(time.Now())
	return t.FSOps.MmapRead(name, off, n)
}
func (t timedFS) Cleanup() error { defer t.s.done(time.Now()); return t.FSOps.Cleanup() }

type timedDisk struct {
	core.DiskOps
	s *opStat
}

func (t timedDisk) SeqRead512() error { defer t.s.done(time.Now()); return t.DiskOps.SeqRead512() }
func (t timedDisk) Reset() error      { defer t.s.done(time.Now()); return t.DiskOps.Reset() }

// cacheRec is the unit cache's observer plus the timer of its calls.
type cacheRec struct {
	hits, misses, bytes atomic.Int64
	lookupNS, storeNS   atomic.Int64
}

func (c *cacheRec) CacheHit()               { c.hits.Add(1) }
func (c *cacheRec) CacheMiss()              { c.misses.Add(1) }
func (c *cacheRec) CacheStored(bytes int64) { c.bytes.Add(bytes) }
func (c *cacheRec) CacheEvicted(int, int64) {}

// timedCache times lookups and stores of the wrapped unit cache.
type timedCache struct {
	core.UnitCache
	rec *cacheRec
}

func (t timedCache) Lookup(machine, key string) (core.JournalRecord, bool) {
	start := time.Now()
	rec, ok := t.UnitCache.Lookup(machine, key)
	t.rec.lookupNS.Add(int64(time.Since(start)))
	return rec, ok
}

func (t timedCache) Store(rec core.JournalRecord) error {
	start := time.Now()
	err := t.UnitCache.Store(rec)
	t.rec.storeNS.Add(int64(time.Since(start)))
	return err
}

// fleetRec is the fleet coordinator's observer and event sink. Units in
// flight are integrated over time, so busy is the summed per-unit time
// from dispatch to result; finished sums the experiment durations the
// workers report for the same units.
type fleetRec struct {
	mu                       sync.Mutex
	started, deaths, retried int
	waits                    []float64 // ms
	inflight                 int
	last                     time.Time
	busy, finished           time.Duration
}

func newFleetRec() *fleetRec { return &fleetRec{} }

func (f *fleetRec) workersStarted() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.started
}

func (f *fleetRec) WorkerUp(string) {
	f.mu.Lock()
	f.started++
	f.mu.Unlock()
}

func (f *fleetRec) WorkerDown(string, error) {
	f.mu.Lock()
	f.deaths++
	f.mu.Unlock()
}

func (f *fleetRec) QueueDepth(_, inflight int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	if f.inflight > 0 {
		f.busy += time.Duration(f.inflight) * now.Sub(f.last)
	}
	f.inflight, f.last = inflight, now
}

func (f *fleetRec) UnitDispatched(wait time.Duration) {
	f.mu.Lock()
	f.waits = append(f.waits, float64(wait)/float64(time.Millisecond))
	f.mu.Unlock()
}

func (f *fleetRec) UnitDone() {}

func (f *fleetRec) UnitRetried() {
	f.mu.Lock()
	f.retried++
	f.mu.Unlock()
}

// Event implements core.EventSink.
func (f *fleetRec) Event(e core.Event) {
	if e.Kind != core.ExperimentFinished {
		return
	}
	f.mu.Lock()
	f.finished += e.Duration
	f.mu.Unlock()
}

// Calibration passes, in the order calibrate runs them.
const (
	passSerial = iota
	passGeometry
	passParallel
	passVerify
	numPasses
)

var passNames = [numPasses]string{"serial", "geometry", "parallel", "verify"}

// fitRec times calibrate's passes from its event stream: each pass ends
// at the first-round event of its last parameter, and verification runs
// from there to CalibrateFinished (re-fits included).
type fitRec struct {
	mu     sync.Mutex
	passes [numPasses]time.Duration
	start  time.Time
	ends   [passVerify]time.Time
	seen   map[string]bool
}

func passOf(param string) int {
	switch {
	case param == "syscall_us" || param == "ctx_us":
		return passSerial
	case strings.HasSuffix(param, "_size"):
		return passGeometry
	}
	return passParallel
}

// Event implements core.EventSink.
func (f *fitRec) Event(e core.Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch e.Kind {
	case core.CalibrateStarted:
		f.start, f.ends, f.seen = e.Time, [passVerify]time.Time{}, map[string]bool{}
	case core.CalibrateParam:
		if !f.seen[e.Experiment] {
			f.seen[e.Experiment] = true
			f.ends[passOf(e.Experiment)] = e.Time
		}
	case core.CalibrateFinished:
		prev := f.start
		for i, end := range f.ends {
			if end.Before(prev) {
				end = prev
			}
			f.passes[i] += end.Sub(prev)
			prev = end
		}
		f.passes[passVerify] += e.Time.Sub(prev)
	}
}

// metrics assembles the per-layer metrics.
func (r *recorder) metrics() map[string]float64 {
	e := r.eval
	e.mu.Lock()
	defer e.mu.Unlock()
	m := map[string]float64{
		"machines.builds":  float64(r.builds),
		"machines.build_s": r.buildS,
		"sim.mem_calls":    float64(e.ops[opMem].calls.Load()),
		"sim.os_calls":     float64(e.ops[opOS].calls.Load()),
	}
	var opS float64
	for i, name := range opNames {
		s := e.ops[i].seconds()
		opS += s
		m["sim."+name+"_s"] = s
	}
	probes := e.sim["mem_accesses"]
	for k, v := range e.sim {
		if strings.HasPrefix(k, "l") && strings.HasSuffix(k, "_hits") {
			probes += v
		}
	}
	m["simmem.probes"] = float64(probes)
	m["simmem.ns_per_probe"] = ratio(m["sim.mem_s"]*1e9, float64(probes))
	m["simmem.mru_hit_ratio"] = ratio(float64(e.sim["mru_hits"]), float64(e.sim["mru_hits"]+e.sim["index_hits"]))
	m["simmem.tlb_misses"] = float64(e.sim["tlb_misses"])
	m["simmem.writebacks"] = float64(e.sim["writebacks"])

	m["core.units"] = float64(e.units)
	m["core.retries"] = float64(e.retries)
	m["core.failed"] = float64(e.failed)
	var unitS float64
	for _, b := range []string{"mem_hier", "table2", "table5", "ctx", "table3", "rest"} {
		m["core.unit_s."+b] = e.unitS[b]
		unitS += e.unitS[b]
	}
	m["core.harness_self_s"] = unitS - opS
	m["timing.batches"] = float64(e.batches.Load())
	m["timing.calibrations"] = float64(e.calibrations.Load())

	f := r.fleet
	if f == nil {
		f = newFleetRec()
	}
	f.mu.Lock()
	m["fleet.workers_started"] = float64(f.started)
	m["fleet.worker_deaths"] = float64(f.deaths)
	m["fleet.units_retried"] = float64(f.retried)
	m["fleet.dispatch_wait_p50_ms"] = percentile(f.waits, 50)
	m["fleet.dispatch_wait_p99_ms"] = percentile(f.waits, 99)
	m["fleet.unit_overhead_s"] = (f.busy - f.finished).Seconds()
	f.mu.Unlock()
	m["journal.records"] = float64(r.journalRecords)
	m["journal.bytes"] = float64(r.journalBytes)

	c := r.cache
	hits, misses := float64(c.hits.Load()), float64(c.misses.Load())
	m["unitcache.hits"] = hits
	m["unitcache.misses"] = misses
	m["unitcache.hit_ratio"] = ratio(hits, hits+misses)
	m["unitcache.bytes_stored"] = float64(c.bytes.Load())
	m["unitcache.lookup_s"] = float64(c.lookupNS.Load()) / 1e9
	m["unitcache.store_s"] = float64(c.storeNS.Load()) / 1e9

	m["results.encode_s"] = r.encodeS
	m["results.db_bytes"] = float64(r.dbBytes)

	b := r.store
	if b == nil {
		b = &burst{}
	}
	m["store.render_misses"] = float64(b.renderMisses)
	m["store.render_hits"] = float64(b.renderHits)
	m["store.not_modified"] = float64(b.notModified)
	m["store.render_hit_ratio"] = ratio(float64(b.renderHits), float64(b.renderHits+b.renderMisses))
	m["store.render_p50_ms"] = percentile(b.render, 50)
	m["store.hit_p50_ms"] = percentile(b.hit, 50)

	m["calibrate.evals"] = float64(r.evals)
	m["calibrate.s_per_eval"] = ratio(r.fitS, float64(r.evals))
	r.fit.mu.Lock()
	for i, name := range passNames {
		m["calibrate.pass_s."+name] = r.fit.passes[i].Seconds()
	}
	r.fit.mu.Unlock()
	m["trace.overhead_frac"] = r.overhead
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
