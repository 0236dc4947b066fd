package obs

// Tests for the event-stream consumers (MetricsSink, Progress,
// TraceSink) and the -serve HTTP surface. Events are synthesized here;
// the end-to-end path through a real suite run is covered by the
// golden test at the repo root, which asserts the database stays
// byte-identical with all of these attached.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ptime"
)

func event(kind core.EventKind, machine, exp string, attempt int, dur time.Duration, entries int) core.Event {
	return core.Event{
		Kind: kind, Time: time.Now(), Machine: machine, Experiment: exp,
		Attempt: attempt, Duration: dur, Entries: entries,
	}
}

func TestMetricsSinkAggregatesEvents(t *testing.T) {
	reg := NewRegistry()
	s := NewMetricsSink(reg)
	s.Event(event(core.ExperimentStarted, "m1", "table2", 1, 0, 0))
	s.Event(event(core.ExperimentRetried, "m1", "table2", 1, time.Second, 0))
	s.Event(event(core.ExperimentStarted, "m1", "table2", 2, 0, 0))
	fin := event(core.ExperimentFinished, "m1", "table2", 2, 2*time.Second, 4)
	fin.Sim = map[string]int64{"mem_accesses": 123, "tlb_misses": 7}
	fin.Sweep = map[string]int64{"points_measured": 45, "points_skipped": 59, "rounds": 7}
	s.Event(fin)
	s.Event(event(core.ExperimentStarted, "m2", "table7", 1, 0, 0))
	s.Event(event(core.ExperimentSkipped, "m2", "table7", 1, 0, 0))
	s.Event(event(core.ExperimentReplayed, "m2", "table9", 0, 0, 3))

	probe := s.AttemptProbe("m1", "table2", 1)
	probe.Sample(ptime.Microsecond, 10, false)
	probe.Sample(5*ptime.Microsecond, 100, true)
	probe.Calibrated(100, 1)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lmbench_experiments_started_total{machine="m1"} 2`,
		`lmbench_experiments_retried_total{machine="m1"} 1`,
		`lmbench_experiments_finished_total{machine="m1"} 1`,
		`lmbench_experiments_running{machine="m1"} 0`,
		`lmbench_result_entries_total{machine="m1"} 4`,
		`lmbench_experiments_skipped_total{machine="m2"} 1`,
		`lmbench_experiments_replayed_total{machine="m2"} 1`,
		`lmbench_result_entries_total{machine="m2"} 3`,
		`lmbench_sim_mem_accesses_total{machine="m1"} 123`,
		`lmbench_sim_tlb_misses_total{machine="m1"} 7`,
		"lmbench_harness_batches_total 1",
		"lmbench_harness_calibration_batches_total 1",
		"lmbench_harness_benchloops_total 1",
		"lmbench_harness_clock_resolution_seconds 1e-12",
		"lmbench_sweep_points_measured_total 45",
		"lmbench_sweep_points_skipped_total 59",
		`lmbench_experiment_duration_seconds_count{machine="m1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

func TestProgressSnapshotAndETA(t *testing.T) {
	p := NewProgress()
	p.SetPlan("m1", 4)
	base := time.Now()
	ev := func(kind core.EventKind, exp string, dur time.Duration) {
		p.Event(core.Event{Kind: kind, Time: base, Machine: "m1", Experiment: exp, Duration: dur})
	}
	ev(core.ExperimentStarted, "e1", 0)
	ev(core.ExperimentFinished, "e1", 2*time.Second)
	ev(core.ExperimentStarted, "e2", 0)
	ev(core.ExperimentFinished, "e2", 4*time.Second)
	ev(core.ExperimentStarted, "e3", 0)

	s := p.Snapshot()
	if len(s.Machines) != 1 {
		t.Fatalf("machines = %d, want 1", len(s.Machines))
	}
	m := s.Machines[0]
	if m.Done != 2 || m.Planned != 4 {
		t.Errorf("done/planned = %d/%d, want 2/4", m.Done, m.Planned)
	}
	if len(m.Running) != 1 || m.Running[0].Experiment != "e3" {
		t.Errorf("running = %+v, want [e3]", m.Running)
	}
	if m.AvgExperimentSeconds != 3 {
		t.Errorf("avg = %v, want 3", m.AvgExperimentSeconds)
	}
	// Two of four remain at 3s average.
	if m.ETASeconds != 6 {
		t.Errorf("eta = %v, want 6", m.ETASeconds)
	}
	if s.Completed != 2 || s.Running != 1 || s.ETASeconds != 6 {
		t.Errorf("totals = %+v", s)
	}
	// The document must be valid JSON with the documented field names.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"machines"`, `"eta_seconds"`, `"elapsed_seconds"`, `"running"`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Errorf("snapshot JSON missing %s: %s", key, b)
		}
	}
	// A finished machine projects no ETA.
	p.Event(core.Event{Kind: core.MachineFinished, Time: base, Machine: "m1"})
	if eta := p.Snapshot().Machines[0].ETASeconds; eta != 0 {
		t.Errorf("finished machine eta = %v, want 0", eta)
	}
}

func TestTraceSinkSpans(t *testing.T) {
	var buf bytes.Buffer
	ts := NewTraceSink(&buf).WithSamples()
	start := time.Now()
	ts.Event(core.Event{Kind: core.MachineStarted, Time: start, Machine: "m1"})
	ts.Event(core.Event{
		Kind: core.ExperimentFinished, Time: start.Add(time.Second), Machine: "m1",
		Experiment: "table2", Attempt: 1, Duration: time.Second,
	})
	probe := ts.AttemptProbe("m1", "table2", 1)
	if probe == nil {
		t.Fatal("WithSamples sink declined a probe")
	}
	probe.Sample(3*ptime.Microsecond, 100, true)
	ts.Event(core.Event{
		Kind: core.MachineFinished, Time: start.Add(2 * time.Second), Machine: "m1",
		Duration: 2 * time.Second,
	})
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}

	var spans []Span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line does not parse: %v: %s", err, sc.Text())
		}
		spans = append(spans, s)
	}
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4 (attempt, sample, machine, suite): %+v", len(spans), spans)
	}
	byKind := map[string]Span{}
	for _, s := range spans {
		byKind[s.Kind] = s
	}
	if s := byKind["attempt"]; s.Stack != "suite;m1;table2;attempt1" || s.DurNS != time.Second.Nanoseconds() || s.Outcome != "finished" {
		t.Errorf("attempt span = %+v", s)
	}
	if s := byKind["sample"]; s.Stack != "suite;m1;table2;attempt1;sample" || s.DurNS != 3000 || s.N != 100 || s.Outcome != "timed" {
		t.Errorf("sample span = %+v", s)
	}
	if s := byKind["machine"]; s.Stack != "suite;m1" || s.DurNS != (2*time.Second).Nanoseconds() {
		t.Errorf("machine span = %+v", s)
	}
	if s := byKind["suite"]; s.Stack != "suite" || s.DurNS <= 0 {
		t.Errorf("suite span = %+v", s)
	}
	if got := ts.Spans(); got != 4 {
		t.Errorf("Spans() = %d, want 4", got)
	}
	// Without WithSamples the sink declines probes entirely.
	if p := NewTraceSink(io.Discard).AttemptProbe("m", "e", 1); p != nil {
		t.Error("sample-less trace sink must decline probes")
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lmbench_test_total", "A counter.").Add(7)
	p := NewProgress()
	p.SetPlan("m1", 2)
	p.Event(core.Event{Kind: core.ExperimentStarted, Time: time.Now(), Machine: "m1", Experiment: "e1"})
	srv := &Server{Registry: reg, Progress: p}
	h := srv.Handler()

	get := func(path string) (*httptest.ResponseRecorder, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec, rec.Body.String()
	}
	rec, body := get("/healthz")
	if rec.Code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", rec.Code, body)
	}
	rec, body = get("/metrics")
	if rec.Code != http.StatusOK || !strings.Contains(body, "lmbench_test_total 7") {
		t.Errorf("/metrics = %d %q", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	rec, body = get("/progress")
	if rec.Code != http.StatusOK {
		t.Fatalf("/progress = %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress is not JSON: %v\n%s", err, body)
	}
	if snap.Planned != 2 || snap.Running != 1 {
		t.Errorf("/progress = %+v", snap)
	}
}

// TestServerStart exercises the real socket path used by -serve:
// bind :0, scrape over TCP, cancel, and confirm shutdown completes.
func TestServerStart(t *testing.T) {
	srv := &Server{Registry: NewRegistry(), Progress: NewProgress()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, stop, err := srv.Start(ctx, "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind a localhost socket here: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		stop()
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("GET /healthz = %d %q", resp.StatusCode, body)
	}
	stop()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still answering after stop")
	}
}
