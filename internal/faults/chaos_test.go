package faults

// The scheduler chaos suite: wrapped simulated machines push the
// suite scheduler through every failure shape — deterministic
// fail-N-then-succeed sequences on real experiments, seeded random
// errors and timeout-tripping stalls on synthetic ones, injected
// unsupported primitives, and cancellation during a stall — and the
// tests assert exact retry/skip accounting in the event stream plus
// byte-identical result databases. `make chaos` (and the Makefile
// race pass) runs this file under -race.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/timing"
)

func chaosOpts() core.Options {
	return core.Options{
		Timing:       timing.Options{MinSampleTime: 50 * ptime.Microsecond, Samples: 2},
		MemSize:      1 << 20,
		FileSize:     1 << 20,
		PipeBytes:    64 << 10,
		TCPBytes:     128 << 10,
		MaxChaseSize: 2 << 20,
		FSFiles:      100,
		CtxProcs:     []int{2, 8},
		CtxSizes:     []int64{0, 32 << 10},
	}
}

type recorderSink struct {
	mu     sync.Mutex
	events []core.Event
}

func (r *recorderSink) Event(e core.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recorderSink) count(machine string, kind core.EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Machine == machine && e.Kind == kind {
			n++
		}
	}
	return n
}

func encodeDB(t *testing.T, db *results.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosFailSequencesOnRealSuite runs real experiments through a
// fail-once-then-succeed plan and asserts exact retry accounting: one
// retried event per injected failure, and a final database identical
// to a clean run — injected faults must never corrupt results.
func TestChaosFailSequencesOnRealSuite(t *testing.T) {
	only := map[string]bool{"table7": true, "table11": true}
	plan := Plan{
		FailFirstN: 1,
		Ops:        []string{"os.null_write", "net.pipe_rtt", "net.tcp_rtt"},
	}

	clean := &results.DB{}
	r := &core.Runner{Machines: []core.Machine{sim(t, "Linux/i686")}, Opts: chaosOpts(), Only: only}
	if _, err := r.Run(context.Background(), clean); err != nil {
		t.Fatal(err)
	}

	f := Wrap(sim(t, "Linux/i686"), plan)
	rec := &recorderSink{}
	chaotic := &results.DB{}
	cr := &core.Runner{
		Machines: []core.Machine{f}, Opts: chaosOpts(), Only: only,
		Events: rec, Retries: 5, RetryBackoff: time.Millisecond,
	}
	if _, err := cr.Run(context.Background(), chaotic); err != nil {
		t.Fatalf("chaotic run failed: %v", err)
	}

	// table7 measures NullWrite: exactly one injected failure, one
	// retry. The ipc group measures pipe then tcp: two failures, two
	// retries. All failures must be ours.
	if got := rec.count("Linux/i686", core.ExperimentRetried); got != 3 {
		t.Errorf("retried events = %d, want 3 (1 null_write + 1 pipe + 1 tcp)", got)
	}
	if got := rec.count("Linux/i686", core.ExperimentFailed); got != 0 {
		t.Errorf("terminal failures = %d, want 0", got)
	}
	for _, e := range rec.events {
		if e.Kind == core.ExperimentRetried && !strings.Contains(e.Err, "faults:") {
			t.Errorf("retried event carries a non-injected error: %q", e.Err)
		}
	}
	if st := f.Stats(); st.Errors != 3 {
		t.Errorf("injected errors = %d, want 3", st.Errors)
	}
	if got, want := encodeDB(t, chaotic), encodeDB(t, clean); !bytes.Equal(got, want) {
		t.Error("chaotic run's database differs from the clean run")
	}
}

// chaosExperiments builds synthetic experiments with a bounded number
// of primitive calls per attempt, so per-call fault rates translate
// into per-attempt failure odds the retry budget can absorb.
func chaosExperiments(n int) []core.Experiment {
	exps := make([]core.Experiment, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("chaos%d", i)
		exps[i] = core.Experiment{
			ID: id, Title: "synthetic chaos experiment", Benchmarks: []string{id},
			Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
				if err := m.OS().NullWrite(); err != nil {
					return nil, err
				}
				if err := m.Net().PipeRoundTrip(); err != nil {
					return nil, err
				}
				return []results.Entry{{Benchmark: id, Machine: m.Name(), Unit: "ns", Scalar: float64(100 + i)}}, nil
			},
		}
	}
	return exps
}

// TestChaosSeededRatesAcrossTwoMachines is the acceptance-criteria
// chaos run: a seeded plan injecting >=30% faults per call (errors,
// stalls and latency spikes) across two sim machines in one run at
// GOMAXPROCS=2, whose units overlap at the machine boundary. The
// executor must complete every experiment, the event stream must
// account for each injected fault exactly, and the database must match
// the serial chaotic run.
// chaosSeed is the base seed for the seeded-rate run; `make chaos`
// overrides it via LMBENCH_CHAOS_SEED to explore other fault streams.
func chaosSeed(t *testing.T) int64 {
	v := os.Getenv("LMBENCH_CHAOS_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("LMBENCH_CHAOS_SEED=%q: %v", v, err)
	}
	return seed
}

func TestChaosSeededRatesAcrossTwoMachines(t *testing.T) {
	plan := func(seed int64) Plan {
		return Plan{
			Seed:      seed,
			ErrorRate: 0.25,
			StallRate: 0.05,
			SpikeRate: 0.05,
			StallFor:  time.Minute, // far beyond the timeout: a stall always trips it
			SpikeFor:  500 * time.Microsecond,
		}
	}
	exps := chaosExperiments(8)

	seed := chaosSeed(t)
	run := func(procs int) (*results.DB, *recorderSink, []*Machine) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ms := []*Machine{
			Wrap(sim(t, "Linux/i686"), plan(seed)),
			Wrap(sim(t, "Linux/i586"), plan(seed+1)),
		}
		rec := &recorderSink{}
		db := &results.DB{}
		r := &core.Runner{
			Machines:     []core.Machine{ms[0], ms[1]},
			Opts:         chaosOpts(),
			Events:       rec,
			Experiments:  exps,
			Timeout:      250 * time.Millisecond,
			Retries:      12,
			RetryBackoff: time.Millisecond,
		}
		if _, err := r.Run(context.Background(), db); err != nil {
			t.Fatalf("chaotic run (GOMAXPROCS=%d) failed: %v", procs, err)
		}
		return db, rec, ms
	}

	db, rec, ms := run(2)

	// Every experiment on both machines completed despite the chaos.
	for _, m := range []string{"Linux/i686", "Linux/i586"} {
		if got := rec.count(m, core.ExperimentFinished); got != len(exps) {
			t.Errorf("%s: finished = %d, want %d", m, got, len(exps))
		}
		if got := rec.count(m, core.ExperimentFailed); got != 0 {
			t.Errorf("%s: terminal failures = %d, want 0", m, got)
		}
	}

	// Exact accounting: every injected error and every stall (each
	// stall trips the 250ms timeout) aborts exactly one attempt, so
	// the retried-event count equals the injected error+stall count.
	totalFaults, totalCalls := 0, 0
	for i, m := range []string{"Linux/i686", "Linux/i586"} {
		st := ms[i].Stats()
		if got, want := rec.count(m, core.ExperimentRetried), st.Errors+st.Stalls; got != want {
			t.Errorf("%s: retried events = %d, want %d (errors %d + stalls %d)",
				m, got, want, st.Errors, st.Stalls)
		}
		totalFaults += st.Faults()
		totalCalls += st.Calls
	}
	if totalFaults == 0 || totalCalls == 0 {
		t.Fatal("chaos plan injected nothing")
	}
	// The plan's 35% combined rate must actually materialize (~30%+
	// of calls see a fault; the seeded stream is deterministic).
	if ratio := float64(totalFaults) / float64(totalCalls); ratio < 0.25 {
		t.Errorf("fault ratio = %.2f, want >= 0.25 (plan rate 0.35)", ratio)
	}

	// Merge semantics survive the chaos: a serial run with the same
	// seeds produces a byte-identical database.
	serialDB, _, _ := run(1)
	if !bytes.Equal(encodeDB(t, db), encodeDB(t, serialDB)) {
		t.Error("GOMAXPROCS=2 chaotic run encoded differently from the serial chaotic run")
	}
}

// TestChaosUnsupportedSkips: injected ErrUnsupported flows through the
// suite's skip path with exact accounting and no retries burned.
func TestChaosUnsupportedSkips(t *testing.T) {
	f := Wrap(sim(t, "Linux/i686"), Plan{Unsupported: []string{"disk"}})
	rec := &recorderSink{}
	db := &results.DB{}
	r := &core.Runner{
		Machines: []core.Machine{f}, Opts: chaosOpts(),
		Only:    map[string]bool{"table7": true, "table17": true},
		Events:  rec,
		Retries: 3, RetryBackoff: time.Millisecond,
	}
	skipped, err := r.Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if got := skipped["Linux/i686"]; len(got) != 1 || got[0] != "table17" {
		t.Errorf("skipped = %v, want [table17]", got)
	}
	if got := rec.count("Linux/i686", core.ExperimentSkipped); got != 1 {
		t.Errorf("skipped events = %d, want 1", got)
	}
	if got := rec.count("Linux/i686", core.ExperimentRetried); got != 0 {
		t.Errorf("unsupported experiment burned %d retries", got)
	}
	if _, ok := db.Get("lat_syscall", "Linux/i686"); !ok {
		t.Error("supported experiment missing from database")
	}
}

// TestChaosReachesExtensions: the §7 extension primitives are part of
// the op sets, so a wrapped machine runs every extension group its bare
// machine runs and the plan reaches their primitives — under the zero
// plan nothing more is skipped and Stats counts the extension ops, and
// an error rate of 1 on mem.stream_kernel fails ext_stream instead of
// skipping it.
func TestChaosReachesExtensions(t *testing.T) {
	ext := map[string]bool{}
	for _, e := range core.Extensions() {
		ext[e.ID] = true
	}
	run := func(m core.Machine, only map[string]bool) ([]string, error) {
		s := &core.Suite{M: m, Opts: chaosOpts(), Only: only, Extended: true}
		return s.Run(context.Background(), &results.DB{})
	}
	for name, ops := range map[string][]string{
		"Linux/i686":    {"mem.new_chase_variant", "mem.new_page_chase", "mem.stream_kernel", "os.physical_memory", "os.touch_pages"},
		"SGI Challenge": {"os.c2c_ping_pong", "os.c2c_transfer"},
	} {
		bare, err := run(sim(t, name), ext)
		if err != nil {
			t.Fatalf("%s bare: %v", name, err)
		}
		f := Wrap(sim(t, name), Plan{})
		wrapped, err := run(f, ext)
		if err != nil {
			t.Fatalf("%s wrapped: %v", name, err)
		}
		if fmt.Sprint(wrapped) != fmt.Sprint(bare) {
			t.Errorf("%s: wrapped run skipped %v, bare run %v", name, wrapped, bare)
		}
		st := f.Stats()
		for _, op := range ops {
			if st.PerOp[op].Calls == 0 {
				t.Errorf("%s: no %s calls counted: %s", name, op, st)
			}
		}
	}
	f := Wrap(sim(t, "Linux/i686"), Plan{Seed: 1, ErrorRate: 1, Ops: []string{"mem.stream_kernel"}})
	skipped, err := run(f, map[string]bool{"ext_stream": true})
	if !errors.Is(err, ErrInjected) || len(skipped) != 0 {
		t.Errorf("faulted ext_stream: skipped %v, err %v; want it failed by an injected error", skipped, err)
	}
}

// TestChaosCancellationDuringStall: cancelling the run while a
// primitive is wedged in an injected stall unwinds promptly.
func TestChaosCancellationDuringStall(t *testing.T) {
	f := Wrap(sim(t, "Linux/i686"), Plan{StallRate: 1, StallFor: 10 * time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	defer cancel()
	r := &core.Runner{
		Machines:    []core.Machine{f},
		Opts:        chaosOpts(),
		Experiments: chaosExperiments(1),
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, &results.DB{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run wedged in an injected stall")
	}
}
