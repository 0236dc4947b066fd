package compare_test

import (
	"os"
	"path/filepath"
	"testing"

	lmbench "repro"
	"repro/compare"
)

// TestLoadPaperAndFiles: Load serves the paper's values under the
// reserved name and decodes harness-written files; the two flow
// through the same API.
func TestLoadPaperAndFiles(t *testing.T) {
	paper, err := compare.Load("paper")
	if err != nil {
		t.Fatal(err)
	}
	if paper.Len() == 0 {
		t.Fatal("paper database is empty")
	}

	// Round-trip the paper database through a file: Load must decode
	// exactly what was encoded.
	path := filepath.Join(t.TempDir(), "paper.db")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := paper.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := compare.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != paper.Len() {
		t.Errorf("file round trip changed entry count: %d != %d", back.Len(), paper.Len())
	}

	if _, err := compare.Load(filepath.Join(t.TempDir(), "missing.db")); err == nil {
		t.Error("loading a missing file did not error")
	}
}

// TestStoreRoundTripThroughPublicAPI: compare's DB is the facade's —
// a store opened through lmbench accepts and serves databases loaded
// here, and compares them unchanged.
func TestStoreRoundTripThroughPublicAPI(t *testing.T) {
	s, err := lmbench.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := compare.Paper()
	put, err := s.Put(lmbench.Manifest{
		Label: "ref", Machines: []string{"published"}, Options: "{}", CodeVersion: "v",
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	m, got, err := s.DB("ref")
	if err != nil {
		t.Fatal(err)
	}
	if m.RunID != put.RunID {
		t.Errorf("label resolved to %s, want %s", m.RunID, put.RunID)
	}
	rep := compare.Regressions(db, got, compare.RegressOptions{})
	if !rep.Empty() {
		t.Errorf("store round trip introduced regressions: %+v", rep.Deltas)
	}
	comps := compare.Compare(db, got)
	if mean, _, total := compare.Summary(comps, 0.6); total == 0 || mean != 1 {
		t.Errorf("store round trip broke agreement: mean rank %v over %d", mean, total)
	}
}
