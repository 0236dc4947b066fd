package machines

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDefaultCatalog pins the shipped catalog: every compiled built-in
// resolves, the embedded data files are present, and the total meets
// the ≥25-profile catalog goal.
func TestDefaultCatalog(t *testing.T) {
	c := Default()
	if got := c.Len(); got < 25 {
		t.Fatalf("default catalog has %d profiles, want >= 25", got)
	}
	for _, name := range Names() {
		e, ok := c.Entry(name)
		if !ok {
			t.Errorf("compiled built-in %s missing from default catalog", name)
			continue
		}
		if e.Source != SourceBuiltin {
			t.Errorf("%s: source = %s, want %s", name, e.Source, SourceBuiltin)
		}
	}
	for name, source := range map[string]string{
		"SunOS/SS20":          SourceBuiltin,
		"SGI Challenge/4":     SourceBuiltin,
		"Modern/desktop-3GHz": SourceCalibrated,
	} {
		e, ok := c.Entry(name)
		if !ok {
			t.Errorf("embedded profile %s missing", name)
			continue
		}
		if e.Source != source {
			t.Errorf("%s: source = %s, want %s", name, e.Source, source)
		}
	}
}

// TestDefaultCatalogBuilds proves every shipped profile — compiled or
// embedded data file — assembles into a runnable machine.
func TestDefaultCatalogBuilds(t *testing.T) {
	for _, e := range Default().Entries() {
		if _, err := Build(e.Profile); err != nil {
			t.Errorf("build %s: %v", e.Profile.Name, err)
		}
	}
}

// TestCompiledTestbedFrozen guards the golden byte-identity testbed:
// growing the catalog must happen through data files, never by
// extending the compiled catalog.go slice that Names()/All() expose.
func TestCompiledTestbedFrozen(t *testing.T) {
	if got := len(Names()); got != 15 {
		t.Fatalf("compiled testbed has %d profiles, want 15 — add new machines as "+
			"data files under internal/machines/profiles/, not catalog.go, or the "+
			"golden suite hash changes", got)
	}
}

func TestCatalogShadowing(t *testing.T) {
	c := Default()
	orig, ok := c.ByName("Linux/i686")
	if !ok {
		t.Fatal("Linux/i686 missing")
	}
	mod := orig
	mod.SyscallUS = 99
	if err := c.Add(mod, SourceFile); err != nil {
		t.Fatal(err)
	}
	got, ok := c.ByName("Linux/i686")
	if !ok || got.SyscallUS != 99 {
		t.Fatalf("later Add did not shadow: got %+v", got.SyscallUS)
	}
	e, _ := c.Entry("Linux/i686")
	if e.Source != SourceFile {
		t.Errorf("winning source = %s, want %s", e.Source, SourceFile)
	}
	// The package-level resolver and other catalogs are unaffected.
	if p, _ := ByName("Linux/i686"); p.SyscallUS == 99 {
		t.Error("shadowing leaked into the compiled catalog")
	}
	if p, _ := Default().ByName("Linux/i686"); p.SyscallUS == 99 {
		t.Error("shadowing leaked into a fresh Default catalog")
	}
	// Len counts names, not registrations.
	if c.Len() != Default().Len() {
		t.Errorf("shadowing changed Len: %d vs %d", c.Len(), Default().Len())
	}
}

func TestCatalogAddValidates(t *testing.T) {
	c := NewCatalog()
	if err := c.Add(Profile{}, SourceFile); err == nil {
		t.Error("Add accepted a nameless profile")
	}
	if err := c.Add(Profile{Name: "x"}, "weird"); err == nil {
		t.Error("Add accepted an unknown source")
	}
	if err := c.Add(Profile{Name: "x"}, SourceCalibrated); err != nil {
		t.Errorf("Add(p, SourceCalibrated): %v", err)
	}
	e, ok := c.Entry("x")
	if !ok || e.Source != SourceCalibrated {
		t.Errorf("entry = %+v, %v", e, ok)
	}
}

func TestCatalogLoadPath(t *testing.T) {
	dir := t.TempDir()
	a, _ := ByName("Linux/i686")
	a.Name = "file/a"
	b, _ := ByName("Linux/i586")
	b.Name = "file/b"
	if err := WriteProfileFile(filepath.Join(dir, "a.json"), a); err != nil {
		t.Fatal(err)
	}
	if err := WriteProfileFile(filepath.Join(dir, "b.json"), b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("skip me"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := NewCatalog()
	if err := c.LoadPath(dir); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("loaded %d profiles, want 2", c.Len())
	}
	e, ok := c.Entry("file/a")
	if !ok || e.Source != SourceFile || e.Path != filepath.Join(dir, "a.json") {
		t.Errorf("entry = %+v, %v", e, ok)
	}

	// Single-file form.
	c2 := NewCatalog()
	if err := c2.LoadPath(filepath.Join(dir, "b.json")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.ByName("file/b"); !ok {
		t.Error("file/b missing after LoadPath(file)")
	}

	// Error cases: empty dir, missing path, malformed file.
	if err := NewCatalog().LoadPath(t.TempDir()); err == nil {
		t.Error("LoadPath accepted a dir with no profiles")
	}
	if err := NewCatalog().LoadPath(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("LoadPath accepted a missing path")
	}
	bad := filepath.Join(dir, "sub")
	if err := os.Mkdir(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "bad.json"), []byte(`{"Nope": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewCatalog().LoadPath(bad); err == nil {
		t.Error("LoadPath accepted a malformed profile")
	}
}

func TestCatalogEntriesSorted(t *testing.T) {
	c := Default()
	entries := c.Entries()
	names := c.Names()
	if len(entries) != len(names) {
		t.Fatalf("Entries %d vs Names %d", len(entries), len(names))
	}
	for i, e := range entries {
		if e.Profile.Name != names[i] {
			t.Fatalf("entry %d = %s, want %s", i, e.Profile.Name, names[i])
		}
	}
}
