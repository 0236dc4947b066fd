package obs

// Tests for the adaptive-sweep trace surface: the planner child span
// TraceSink derives from Event.Sweep. MetricsSink's planner counter
// families are checked in TestMetricsSinkAggregatesEvents.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
)

// TestTraceSinkPlannerSpan pins the planner child span: a finished
// event carrying sweep counters emits one extra span under the
// attempt, and events without counters (every exhaustive run) do not.
func TestTraceSinkPlannerSpan(t *testing.T) {
	var buf bytes.Buffer
	ts := NewTraceSink(&buf)
	start := time.Now()
	ts.Event(core.Event{
		Kind: core.ExperimentFinished, Time: start.Add(time.Second), Machine: "m1",
		Experiment: "figure1", Attempt: 1, Duration: time.Second,
		Sweep: map[string]int64{"points_measured": 45, "points_skipped": 59, "rounds": 7},
	})
	ts.Event(core.Event{
		Kind: core.ExperimentFinished, Time: start.Add(2 * time.Second), Machine: "m1",
		Experiment: "table2", Attempt: 1, Duration: time.Second,
	})

	var spans []Span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line does not parse: %v: %s", err, sc.Text())
		}
		spans = append(spans, s)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3 (attempt, planner, attempt): %+v", len(spans), spans)
	}
	var planner *Span
	for i := range spans {
		if spans[i].Kind == "planner" {
			if planner != nil {
				t.Fatal("more than one planner span")
			}
			planner = &spans[i]
		}
	}
	if planner == nil {
		t.Fatal("no planner span emitted for the adaptive attempt")
	}
	if planner.Stack != "suite;m1;figure1;attempt1;planner" {
		t.Errorf("planner stack = %q", planner.Stack)
	}
	if planner.Outcome != "planned" || planner.N != 45 {
		t.Errorf("planner span = %+v", planner)
	}
	if planner.Sweep["points_skipped"] != 59 || planner.Sweep["rounds"] != 7 {
		t.Errorf("planner sweep counters = %+v", planner.Sweep)
	}
}
