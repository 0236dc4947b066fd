package lmbench

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
)

func storeRunOpts(t *testing.T, extra ...Option) []Option {
	t.Helper()
	m, err := NewSimMachine("Linux/i686")
	if err != nil {
		t.Fatal(err)
	}
	return append([]Option{
		WithMachine(m),
		WithOptions(exampleOpts()),
		WithOnly("table7"),
	}, extra...)
}

// TestWithStorePersistsRun: WithStore lands the finished run in the
// store under Report.RunID, labeled; an identical re-run dedupes onto
// the same run.
func TestWithStorePersistsRun(t *testing.T) {
	dir := t.TempDir()
	rep, err := New(storeRunOpts(t, WithStore(dir), WithRunLabel("nightly"))...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunID == "" {
		t.Fatal("report has no RunID")
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Resolve("nightly")
	if err != nil {
		t.Fatalf("label did not resolve: %v", err)
	}
	if m.RunID != rep.RunID {
		t.Errorf("stored run %s, report says %s", m.RunID, rep.RunID)
	}
	if m.Entries != rep.DB.Len() || len(m.Machines) != 1 || m.Machines[0] != "Linux/i686" {
		t.Errorf("manifest does not describe the run: %+v", m)
	}

	// The simulator is deterministic: the same configuration re-run
	// must produce the same RunID and not a second stored run.
	again, err := New(storeRunOpts(t, WithStore(dir))...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.RunID != rep.RunID {
		t.Errorf("identical re-run got RunID %s, want %s", again.RunID, rep.RunID)
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Errorf("store holds %d runs after idempotent re-run, want 1", len(runs))
	}
}

// TestRunIDIgnoresGOMAXPROCS: the run ID keys what a run produced, not
// how wide it ran. The same run stored at GOMAXPROCS 1 and 2 gets one
// run ID and one stored run. (cmd/lmbench's test of the same name adds
// the CLI path to this.)
func TestRunIDIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	var ids []string
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		rep, err := New(storeRunOpts(t, WithOnly("table7", "figure1"), WithStore(dir))...).Run(context.Background())
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		ids = append(ids, rep.RunID)
	}
	if ids[0] != ids[1] {
		t.Errorf("run IDs %v differ across GOMAXPROCS", ids)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if runs, err := s.Runs(); err != nil || len(runs) != 1 {
		t.Errorf("store holds %d runs (err %v), want 1", len(runs), err)
	}
}

// TestWithPublishStreamsToDaemon: WithPublish lands the run in a
// remote store over the ingestion protocol, under the same RunID a
// local WithStore run computes — network publish and local store are
// the same keying.
func TestWithPublishStreamsToDaemon(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeStoreIngestWith(ctx, ln, s, IngestOptions{}) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ingest daemon: %v", err)
		}
	}()

	rep, err := New(storeRunOpts(t, WithPublish(ln.Addr().String()), WithRunLabel("published"))...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, db, err := s.DB(rep.RunID)
	if err != nil {
		t.Fatalf("published run not in daemon store: %v", err)
	}
	if m.Label != "published" {
		t.Errorf("label %q did not travel with the publish", m.Label)
	}
	var local, remote bytes.Buffer
	if err := rep.DB.Encode(&local); err != nil {
		t.Fatal(err)
	}
	if err := db.Encode(&remote); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Error("daemon-side database differs from the local run")
	}
}

// TestReportPublish: a report from a plain run can be stored after
// the fact; the manifest was computed either way and RunID agrees.
func TestReportPublish(t *testing.T) {
	rep, err := New(storeRunOpts(t)...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunID == "" {
		t.Fatal("plain run has no RunID")
	}
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := rep.Publish(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if m.RunID != rep.RunID {
		t.Errorf("Publish stored %s, report says %s", m.RunID, rep.RunID)
	}
}

// ExampleWithStore: persisting runs makes history queryable — the
// store dedupes identical deterministic runs by content.
func ExampleWithStore() {
	dir, err := os.MkdirTemp("", "lmbench-store")
	if err != nil {
		panic(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()

	run := func(label string) *Report {
		m, err := NewSimMachine("Linux/i686")
		if err != nil {
			panic(err)
		}
		rep, err := New(
			WithMachine(m),
			WithOptions(exampleOpts()),
			WithOnly("table7"),
			WithStore(dir),
			WithRunLabel(label),
		).Run(context.Background())
		if err != nil {
			panic(err)
		}
		return rep
	}
	first, second := run("monday"), run("tuesday")

	s, err := OpenStore(dir)
	if err != nil {
		panic(err)
	}
	runs, err := s.Runs()
	if err != nil {
		panic(err)
	}
	fmt.Println("same run id:", first.RunID == second.RunID)
	fmt.Println("stored runs:", len(runs))
	// Output:
	// same run id: true
	// stored runs: 1
}
