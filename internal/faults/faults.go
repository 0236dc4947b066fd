// Package faults is the suite's deterministic, seeded fault injection:
// one plan dialect and two injection points, so the harness is proven
// against a hostile machine and a hostile network alike.
//
//   - Machine primitives. Wrap puts a chaos layer around any
//     core.Machine — injected errors, latency spikes, stalls that trip
//     per-experiment deadlines, fail-N-then-succeed sequences, and
//     primitives that suddenly report ErrUnsupported — to exercise the
//     suite scheduler's retries, backoff, timeouts, cancellation and
//     skip/merge semantics. `lmbench -chaos <plan>` applies it to a
//     real run for self-testing on live hosts.
//   - Wire frames. An Injector faults the distributed layer's rpcx
//     record frames in flight — per-direction delay, dropped
//     connections, frames truncated mid-record, duplicated frames, bit
//     flips, and accept-then-reset — so the fleet transport and the
//     store ingest path are proven to survive a hostile network. It
//     installs through Conn (a dialed or accepted connection's writes),
//     Accept (a server's accept hook) and Proxy (a standalone lossy
//     proxy, `lmbench -chaos-net <plan>`).
//
// Both points read one plan syntax (ParsePlan, ParseWirePlan):
// comma-separated key=value pairs, list values separated by ';', each
// point accepting only its own keys. Rates lie in [0,1] and the rates
// that split one draw sum to at most 1; Ops filters match name
// prefixes; a Budget caps the injected faults so a chaotic run still
// converges.
//
// Determinism: every randomized decision comes from a seeded stream,
// so a fixed (seed, plan, workload) triple injects exactly the same
// faults at exactly the same calls or frames on every run — chaos
// tests assert exact accounting, not distributions. A wrapped machine
// draws from one rand.Rand in primitive-call order (the suite runs each
// machine's experiments sequentially) and draws nothing for a call its
// filter skips, a fail-first-N call or a spent budget. A wire stream is
// seeded by (seed, connection index, direction), consumed in frame
// order, and consumes its draw whatever the filter or budget says. With
// concurrent connections the accept order (and so the index) can vary,
// but each connection's fault sequence is a pure function of its index.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/timing"
)

// ErrInjected marks failures manufactured by an injection point — a
// failed primitive, a dropped or truncated frame — so tests tell
// injected faults from real backend or transport failures with
// errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// parse reads the plan dialect into the fields of one plan:
// comma-separated key=value pairs, list values separated by ';'. keys
// maps each key the injection point declares to the field it sets (an
// *int64, *float64, *time.Duration, *int or *[]string); any other key
// is refused.
func parse(s string, keys map[string]any) error {
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("faults: plan field %q is not key=value", field)
		}
		var err error
		switch dst := keys[k].(type) {
		case *int64:
			*dst, err = strconv.ParseInt(v, 10, 64)
		case *float64:
			*dst, err = strconv.ParseFloat(v, 64)
		case *time.Duration:
			*dst, err = time.ParseDuration(v)
		case *int:
			*dst, err = strconv.Atoi(v)
		case *[]string:
			*dst = splitList(v)
		default:
			return fmt.Errorf("faults: unknown plan key %q", k)
		}
		if err != nil {
			return fmt.Errorf("faults: plan field %q: %w", field, err)
		}
	}
	return nil
}

func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ";") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// validate rejects a nonsensical plan, given its key table (see parse):
// every rate must lie in [0,1], no duration or count may be negative,
// and drawn — the sum of the rates that split one uniform draw — must
// not exceed 1.
func validate(keys map[string]any, drawn float64) error {
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		switch v := keys[k].(type) {
		case *float64:
			if !(*v >= 0 && *v <= 1) { // NaN too
				return fmt.Errorf("faults: %s %v outside [0,1]", k, *v)
			}
		case *time.Duration:
			if *v < 0 {
				return fmt.Errorf("faults: negative %s %v", k, *v)
			}
		case *int:
			if *v < 0 {
				return fmt.Errorf("faults: negative %s %d", k, *v)
			}
		}
	}
	if drawn > 1 {
		return fmt.Errorf("faults: rates sharing one draw sum to %v > 1", drawn)
	}
	return nil
}

// matchAny reports whether op starts with one of prefixes.
func matchAny(prefixes []string, op string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(op, p) {
			return true
		}
	}
	return false
}

// budgetLeft reports whether a plan with the given budget (0 means
// unlimited) may inject another fault after spent.
func budgetLeft(budget, spent int) bool {
	return budget == 0 || spent < budget
}

// pick splits [0,1) among rates in order and returns the index of the
// one the uniform draw x falls in, or -1 when x lies past them all.
func pick(x float64, rates ...float64) int {
	sum := 0.0
	for i, r := range rates {
		sum += r
		if x < sum {
			return i
		}
	}
	return -1
}

// Plan describes what to inject into machine primitives. Rates are per
// primitive call and drawn from one uniform sample per call, so
// ErrorRate + StallRate + SpikeRate must not exceed 1.
type Plan struct {
	// Seed initializes the wrapper's random stream.
	Seed int64
	// ErrorRate is the probability a call fails with ErrInjected.
	ErrorRate float64
	// StallRate is the probability a call hangs for StallFor (or until
	// the bound context is cancelled — this is the shape that trips
	// per-experiment timeouts).
	StallRate float64
	// SpikeRate is the probability a call is delayed by SpikeFor
	// before proceeding normally (a latency spike, not a failure).
	SpikeRate float64
	// StallFor bounds a stall; default 1s.
	StallFor time.Duration
	// SpikeFor is the injected latency; default 5ms.
	SpikeFor time.Duration
	// FailFirstN makes the first N calls of every targeted primitive
	// fail deterministically before the rate draws begin — the
	// fail-N-then-succeed sequence that proves retry accounting.
	FailFirstN int
	// Budget caps the total number of injected faults (errors, stalls
	// and spikes combined, FailFirstN included); 0 means unlimited. A
	// budget guarantees a chaotic run can still complete.
	Budget int
	// Ops restricts injection to primitives whose name matches one of
	// these prefixes (e.g. "net" or "os.null_write"); empty targets
	// every primitive.
	Ops []string
	// Unsupported lists primitive prefixes that report
	// core.ErrUnsupported instead of running, exercising the suite's
	// skip path.
	Unsupported []string
}

// keys is the machine point's plan key table (see parse).
func (p *Plan) keys() map[string]any {
	return map[string]any{
		"seed": &p.Seed, "err": &p.ErrorRate, "stall": &p.StallRate, "spike": &p.SpikeRate,
		"stallfor": &p.StallFor, "spikefor": &p.SpikeFor, "failn": &p.FailFirstN,
		"budget": &p.Budget, "ops": &p.Ops, "unsupported": &p.Unsupported,
	}
}

// Validate rejects nonsensical plans.
func (p Plan) Validate() error {
	return validate(p.keys(), p.ErrorRate+p.StallRate+p.SpikeRate)
}

// normalize fills defaults.
func (p Plan) normalize() Plan {
	if p.StallFor == 0 {
		p.StallFor = time.Second
	}
	if p.SpikeFor == 0 {
		p.SpikeFor = 5 * time.Millisecond
	}
	return p
}

// ParsePlan parses the machine point's plan, e.g.
//
//	seed=42,err=0.2,stall=0.05,stallfor=2s,spike=0.1,spikefor=10ms,
//	failn=2,budget=50,ops=net;os.null_write,unsupported=disk
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if err := parse(s, p.keys()); err != nil {
		return p, err
	}
	return p, p.Validate()
}

// OpStats counts what happened to one primitive.
type OpStats struct {
	Calls       int
	Errors      int
	Stalls      int
	Spikes      int
	Unsupported int
}

// Stats aggregates a wrapper's injection counters.
type Stats struct {
	Calls       int
	Errors      int
	Stalls      int
	Spikes      int
	Unsupported int
	PerOp       map[string]OpStats
}

// Faults returns the total number of injected faults.
func (s Stats) Faults() int { return s.Errors + s.Stalls + s.Spikes }

// String renders a one-line summary for the -chaos self-test report.
func (s Stats) String() string {
	ops := make([]string, 0, len(s.PerOp))
	for op := range s.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return fmt.Sprintf("%d calls over %d primitives: %d errors, %d stalls, %d spikes, %d unsupported",
		s.Calls, len(ops), s.Errors, s.Stalls, s.Spikes, s.Unsupported)
}

// Machine wraps a core.Machine, injecting the plan's faults into every
// primitive call. It implements core.Machine and core.ContextBinder.
type Machine struct {
	inner core.Machine
	plan  Plan

	mem  *memOps
	os   *osOps
	net  *netOps
	fs   *fsOps
	disk *diskOps

	mu    sync.Mutex
	rng   *rand.Rand
	perOp map[string]*OpStats
	total Stats
	ctx   context.Context
}

var (
	_ core.Machine       = (*Machine)(nil)
	_ core.ContextBinder = (*Machine)(nil)
)

// Wrap builds the chaos wrapper for m. The plan should be validated
// first (ParsePlan does); Wrap fills defaults for zero durations.
func Wrap(m core.Machine, p Plan) *Machine {
	f := &Machine{
		inner: m,
		plan:  p.normalize(),
		rng:   rand.New(rand.NewSource(p.Seed)),
		perOp: map[string]*OpStats{},
	}
	f.mem = &memOps{f: f, inner: m.Mem()}
	f.os = &osOps{f: f, inner: m.OS()}
	f.net = &netOps{f: f, inner: m.Net()}
	f.fs = &fsOps{f: f, inner: m.FS()}
	if d := m.Disk(); d != nil {
		f.disk = &diskOps{f: f, inner: d}
	}
	return f
}

// Name implements core.Machine; the wrapper is transparent so chaos
// results land under the real machine's name.
func (f *Machine) Name() string { return f.inner.Name() }

// Clock implements core.Machine.
func (f *Machine) Clock() timing.Clock { return f.inner.Clock() }

// Mem implements core.Machine.
func (f *Machine) Mem() core.MemOps { return f.mem }

// OS implements core.Machine.
func (f *Machine) OS() core.OSOps { return f.os }

// Net implements core.Machine.
func (f *Machine) Net() core.NetOps { return f.net }

// FS implements core.Machine.
func (f *Machine) FS() core.FSOps { return f.fs }

// Disk implements core.Machine.
func (f *Machine) Disk() core.DiskOps {
	if f.disk == nil {
		return nil
	}
	return f.disk
}

// BindContext implements core.ContextBinder: stalls select on the
// bound per-experiment context (that is how an injected hang trips
// the suite's timeout), and the binding is forwarded to the inner
// machine when it accepts one.
func (f *Machine) BindContext(ctx context.Context) {
	f.mu.Lock()
	f.ctx = ctx
	f.mu.Unlock()
	if cb, ok := f.inner.(core.ContextBinder); ok {
		cb.BindContext(ctx)
	}
}

// Reset implements core.Resetter by forwarding to the wrapped machine,
// so per-attempt state isolation survives fault wrapping. The fault
// plan's own state — the seeded fault stream, the fail-first-N
// counters, the injection budget — is deliberately NOT reset: the plan
// describes one continuous fault history for the whole run.
func (f *Machine) Reset() {
	if r, ok := f.inner.(core.Resetter); ok {
		r.Reset()
	}
}

// SimStats implements core.SimStatser by forwarding to the wrapped
// machine, so chaos runs keep their activity counters in the event
// stream. Clone is deliberately NOT forwarded: a clone's relationship
// to the plan's continuous fault history is undefined, so fault-wrapped
// machines run their sweeps serially.
func (f *Machine) SimStats() map[string]int64 {
	if ss, ok := f.inner.(core.SimStatser); ok {
		return ss.SimStats()
	}
	return nil
}

// Stats returns a snapshot of the injection counters.
func (f *Machine) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.total
	out.PerOp = make(map[string]OpStats, len(f.perOp))
	for op, st := range f.perOp {
		out.PerOp[op] = *st
	}
	return out
}

// inject is the single decision point every wrapped primitive calls
// before delegating. It returns a non-nil error when the call should
// fail instead of running.
func (f *Machine) inject(op string) error {
	f.mu.Lock()
	if len(f.plan.Ops) > 0 && !matchAny(f.plan.Ops, op) && !matchAny(f.plan.Unsupported, op) {
		f.mu.Unlock()
		return nil
	}
	st := f.perOp[op]
	if st == nil {
		st = &OpStats{}
		f.perOp[op] = st
	}
	st.Calls++
	f.total.Calls++
	if matchAny(f.plan.Unsupported, op) {
		st.Unsupported++
		f.total.Unsupported++
		f.mu.Unlock()
		return fmt.Errorf("faults: %s: %w", op, core.ErrUnsupported)
	}
	if !budgetLeft(f.plan.Budget, f.total.Faults()) {
		f.mu.Unlock()
		return nil
	}
	if st.Calls <= f.plan.FailFirstN {
		st.Errors++
		f.total.Errors++
		n := st.Calls
		f.mu.Unlock()
		return fmt.Errorf("faults: %s: failure %d of %d: %w", op, n, f.plan.FailFirstN, ErrInjected)
	}
	switch pick(f.rng.Float64(), f.plan.ErrorRate, f.plan.StallRate, f.plan.SpikeRate) {
	case 0:
		st.Errors++
		f.total.Errors++
		f.mu.Unlock()
		return fmt.Errorf("faults: %s: %w", op, ErrInjected)
	case 1:
		st.Stalls++
		f.total.Stalls++
		ctx := f.ctx
		f.mu.Unlock()
		return f.stall(ctx)
	case 2:
		st.Spikes++
		f.total.Spikes++
		f.mu.Unlock()
		time.Sleep(f.plan.SpikeFor)
		return nil
	}
	f.mu.Unlock()
	return nil
}

// stall hangs like a wedged primitive: it returns the context error
// if the experiment is cancelled or deadlined first, and nil (the
// hang resolved itself) if StallFor elapses unnoticed.
func (f *Machine) stall(ctx context.Context) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	t := time.NewTimer(f.plan.StallFor)
	defer t.Stop()
	select {
	case <-done:
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
