package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

// TestFinishedEventCarriesSimCounters checks the SimStatser plumbing:
// a simulated machine's finished events carry the experiment's
// activity-counter delta, and the counters stay out of the results
// database (whose encoding is covered by the byte-identity guarantee).
func TestFinishedEventCarriesSimCounters(t *testing.T) {
	sink := &recorderSink{}
	s := &core.Suite{
		M:      simMachine(t, "Linux/i686"),
		Opts:   smallOpts(),
		Events: sink,
		Only:   map[string]bool{"figure1": true},
	}
	db := &results.DB{}
	if _, err := s.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	fin := sink.byKind(core.ExperimentFinished)
	if len(fin) != 1 {
		t.Fatalf("got %d finished events, want 1", len(fin))
	}
	sim := fin[0].Sim
	if sim == nil {
		t.Fatal("finished event has no sim counters")
	}
	for _, key := range []string{"mem_accesses", "tlb_misses", "l1_hits"} {
		if sim[key] <= 0 {
			t.Errorf("sim[%q] = %d, want > 0 (have %v)", key, sim[key], sim)
		}
	}
	// The O(1) fast paths must actually be firing on the Figure-1 chase.
	if sim["mru_hits"]+sim["index_hits"] <= 0 {
		t.Errorf("no fast-path hits recorded: %v", sim)
	}
	for _, e := range db.Entries() {
		for k := range e.Attrs {
			if k == "mem_accesses" || k == "tlb_misses" || k == "mru_hits" || k == "index_hits" || k == "passes_skipped" {
				t.Errorf("sim counter %q leaked into result attrs of %s", k, e.Benchmark)
			}
		}
	}
}

// TestStartedEventHasNoSimCounters pins the emission point: the delta
// belongs to the terminal finished event only.
func TestStartedEventHasNoSimCounters(t *testing.T) {
	sink := &recorderSink{}
	s := &core.Suite{
		M:      simMachine(t, "Linux/i686"),
		Opts:   smallOpts(),
		Events: sink,
		Only:   map[string]bool{"table7": true},
	}
	if _, err := s.Run(context.Background(), &results.DB{}); err != nil {
		t.Fatal(err)
	}
	for _, e := range sink.byKind(core.ExperimentStarted) {
		if e.Sim != nil {
			t.Errorf("started event carries sim counters: %v", e.Sim)
		}
	}
}

// TestFinishedEventCountsSkippedPasses checks that steady-state pass
// skipping is visible on the event stream: Table 2 repeats each 1 MB
// stream until its cache state is a fixed point, so its finished event
// reports skipped passes; Table 7 makes no memory passes and reports
// none.
func TestFinishedEventCountsSkippedPasses(t *testing.T) {
	for _, tc := range []struct {
		id   string
		skip bool
	}{{"table2", true}, {"table7", false}} {
		t.Run(tc.id, func(t *testing.T) {
			sink := &recorderSink{}
			s := &core.Suite{
				M:      simMachine(t, "Linux/i686"),
				Opts:   smallOpts(),
				Events: sink,
				Only:   map[string]bool{tc.id: true},
			}
			if _, err := s.Run(context.Background(), &results.DB{}); err != nil {
				t.Fatal(err)
			}
			fin := sink.byKind(core.ExperimentFinished)
			if len(fin) != 1 {
				t.Fatalf("got %d finished events, want 1", len(fin))
			}
			if got := fin[0].Sim["passes_skipped"]; (got > 0) != tc.skip {
				t.Errorf("passes_skipped = %d, want skipped passes: %v (sim %v)", got, tc.skip, fin[0].Sim)
			}
		})
	}
}
