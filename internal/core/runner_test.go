package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/results"
)

// recorderSink captures the event stream for assertions.
type recorderSink struct {
	mu     sync.Mutex
	events []core.Event
}

func (r *recorderSink) Event(e core.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func (r *recorderSink) byKind(k core.EventKind) []core.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []core.Event
	for _, e := range r.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// fastSubset keeps the runner tests quick: three experiments that
// exercise memory, OS and IPC paths on the virtual clock.
func fastSubset() map[string]bool {
	return map[string]bool{"table2": true, "table7": true, "table11": true}
}

func encodeDB(t *testing.T, db *results.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelMatchesSerial is the runner's core guarantee: one run
// over several simulated machines, whose units share the executor's
// GOMAXPROCS slots, encodes a database byte-identical to the serial
// run at every GOMAXPROCS.
func TestParallelMatchesSerial(t *testing.T) {
	var want []byte
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		db := &results.DB{}
		r := &core.Runner{
			Machines: []core.Machine{simMachine(t, "Linux/i686"), simMachine(t, "Linux/i586")},
			Opts:     smallOpts(), Only: fastSubset(),
		}
		if _, err := r.Run(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		if len(db.Machines()) != 2 {
			t.Errorf("GOMAXPROCS=%d: machines = %v, want 2", procs, db.Machines())
		}
		got := encodeDB(t, db)
		if procs == 1 {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: run encoded differently from the serial run (%d vs %d bytes)", procs, len(got), len(want))
		}
	}
}

// TestRunnerCancellationStopsPromptly cancels the run while an
// experiment blocks and expects the scheduler to unwind quickly.
func TestRunnerCancellationStopsPromptly(t *testing.T) {
	started := make(chan struct{})
	blocking := core.Experiment{
		ID: "block", Title: "synthetic blocking experiment",
		Benchmarks: []string{"block"},
		Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	defer cancel()

	r := &core.Runner{
		Machines:    []core.Machine{simMachine(t, "Linux/i686")},
		Opts:        smallOpts(),
		Experiments: []core.Experiment{blocking},
	}
	db := &results.DB{}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, db)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not stop promptly")
	}
}

// TestRetryRecordsAttempts runs a flaky synthetic experiment and
// checks the retry loop's bookkeeping in the event stream.
func TestRetryRecordsAttempts(t *testing.T) {
	var calls int
	flaky := core.Experiment{
		ID: "flaky", Title: "synthetic flaky experiment",
		Benchmarks: []string{"flaky"},
		Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
			calls++
			if calls < 3 {
				return nil, fmt.Errorf("transient failure %d", calls)
			}
			return []results.Entry{{Benchmark: "flaky", Machine: m.Name(), Unit: "ns", Scalar: 1}}, nil
		},
	}
	rec := &recorderSink{}
	s := &core.Suite{
		M: simMachine(t, "Linux/i686"), Opts: smallOpts(),
		Events:      rec,
		Experiments: []core.Experiment{flaky},
		Retries:     3, RetryBackoff: time.Millisecond,
	}
	db := &results.DB{}
	if _, err := s.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("experiment ran %d times, want 3", calls)
	}
	if got := rec.byKind(core.ExperimentStarted); len(got) != 3 {
		t.Errorf("%d started events, want 3", len(got))
	}
	retried := rec.byKind(core.ExperimentRetried)
	if len(retried) != 2 {
		t.Fatalf("%d retried events, want 2", len(retried))
	}
	for i, e := range retried {
		if e.Attempt != i+1 {
			t.Errorf("retried[%d].Attempt = %d, want %d", i, e.Attempt, i+1)
		}
		if e.Err == "" {
			t.Errorf("retried[%d] has no error text", i)
		}
	}
	fin := rec.byKind(core.ExperimentFinished)
	if len(fin) != 1 || fin[0].Attempt != 3 || fin[0].Entries != 1 {
		t.Errorf("finished events = %+v, want one with Attempt=3 Entries=1", fin)
	}
	if _, ok := db.Get("flaky", "Linux/i686"); !ok {
		t.Error("flaky entry missing from database")
	}
}

// TestRetryBudgetExhausted checks a persistent failure surfaces after
// the attempts run out, with a terminal failed event.
func TestRetryBudgetExhausted(t *testing.T) {
	broken := core.Experiment{
		ID: "broken", Title: "synthetic broken experiment",
		Benchmarks: []string{"broken"},
		Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
			return nil, errors.New("always fails")
		},
	}
	rec := &recorderSink{}
	s := &core.Suite{
		M: simMachine(t, "Linux/i686"), Opts: smallOpts(),
		Events:      rec,
		Experiments: []core.Experiment{broken},
		Retries:     1, RetryBackoff: time.Millisecond,
	}
	if _, err := s.Run(context.Background(), &results.DB{}); err == nil {
		t.Fatal("want error from persistently failing experiment")
	}
	failed := rec.byKind(core.ExperimentFailed)
	if len(failed) != 1 || failed[0].Attempt != 2 {
		t.Errorf("failed events = %+v, want one with Attempt=2", failed)
	}
}

// TestUnsupportedNeverRetried checks ErrUnsupported skips immediately
// instead of burning the retry budget.
func TestUnsupportedNeverRetried(t *testing.T) {
	var calls int
	unsup := core.Experiment{
		ID: "unsup", Title: "synthetic unsupported experiment",
		Benchmarks: []string{"unsup"},
		Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
			calls++
			return nil, fmt.Errorf("nope: %w", core.ErrUnsupported)
		},
	}
	rec := &recorderSink{}
	s := &core.Suite{
		M: simMachine(t, "Linux/i686"), Opts: smallOpts(),
		Events:      rec,
		Experiments: []core.Experiment{unsup},
		Retries:     5, RetryBackoff: time.Millisecond,
	}
	skipped, err := s.Run(context.Background(), &results.DB{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("unsupported experiment ran %d times, want 1", calls)
	}
	if len(skipped) != 1 || skipped[0] != "unsup" {
		t.Errorf("skipped = %v, want [unsup]", skipped)
	}
	if got := rec.byKind(core.ExperimentSkipped); len(got) != 1 {
		t.Errorf("%d skipped events, want 1", len(got))
	}
}

// TestAddErrorNamesExperiment is the mid-run db.Add failure contract:
// the error carries the experiment ID and entries merged before the
// failure stay in the database.
func TestAddErrorNamesExperiment(t *testing.T) {
	bad := core.Experiment{
		ID: "badentry", Title: "synthetic bad-entry experiment",
		Benchmarks: []string{"good"},
		Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
			return []results.Entry{
				{Benchmark: "good", Machine: m.Name(), Unit: "ns", Scalar: 1},
				{Benchmark: "", Machine: m.Name()}, // rejected by db.Add
			}, nil
		},
	}
	s := &core.Suite{
		M: simMachine(t, "Linux/i686"), Opts: smallOpts(),
		Experiments: []core.Experiment{bad},
	}
	db := &results.DB{}
	_, err := s.Run(context.Background(), db)
	if err == nil {
		t.Fatal("want error from bad entry")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("badentry")) {
		t.Errorf("error %q does not name the experiment", err)
	}
	if _, ok := db.Get("good", "Linux/i686"); !ok {
		t.Error("entry merged before the failure was lost")
	}
}

// TestJSONLSinkWellFormed runs a small suite through the JSONL sink
// and decodes every line back.
func TestJSONLSinkWellFormed(t *testing.T) {
	var buf bytes.Buffer
	r := &core.Runner{
		Machines: []core.Machine{simMachine(t, "Linux/i686")},
		Opts:     smallOpts(),
		Only:     map[string]bool{"table7": true},
		Events:   core.NewJSONLSink(&buf),
	}
	if _, err := r.Run(context.Background(), &results.DB{}); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 4 { // machine start/finish + experiment start/finish
		t.Fatalf("got %d trace lines, want at least 4", len(lines))
	}
	kinds := map[string]int{}
	for i, line := range lines {
		var e map[string]any
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		kind, _ := e["kind"].(string)
		if kind == "" {
			t.Fatalf("line %d has no kind: %s", i, line)
		}
		kinds[kind]++
		if _, ok := e["time"].(string); !ok {
			t.Errorf("line %d has no time: %s", i, line)
		}
	}
	for _, want := range []string{"machine_started", "machine_finished", "experiment_started", "experiment_finished"} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %s event (kinds: %v)", want, kinds)
		}
	}
}

// TestRunnerFailureKeepsEarlierMachines checks serial-matching merge
// semantics on failure: a machine ordered before the failing one keeps
// its results, and the returned error names the failing machine.
func TestRunnerFailureKeepsEarlierMachines(t *testing.T) {
	good := simMachine(t, "Linux/i686")
	bad := simMachine(t, "Linux/i586")
	failing := core.Experiment{
		ID: "maybe", Title: "fails on one machine",
		Benchmarks: []string{"maybe"},
		Run: func(ctx context.Context, m core.Machine, opts core.Options) ([]results.Entry, error) {
			if m.Name() == bad.Name() {
				return nil, errors.New("boom")
			}
			return []results.Entry{{Benchmark: "maybe", Machine: m.Name(), Unit: "ns", Scalar: 1}}, nil
		},
	}
	r := &core.Runner{
		Machines:    []core.Machine{good, bad},
		Opts:        smallOpts(),
		Experiments: []core.Experiment{failing},
	}
	db := &results.DB{}
	_, err := r.Run(context.Background(), db)
	if err == nil {
		t.Fatal("want error from failing machine")
	}
	if !bytes.Contains([]byte(err.Error()), []byte(bad.Name())) {
		t.Errorf("error %q does not name the failing machine", err)
	}
	if _, ok := db.Get("maybe", good.Name()); !ok {
		t.Error("good machine's entry missing after another machine failed")
	}
}
