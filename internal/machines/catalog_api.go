package machines

import (
	"embed"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Profile sources, reported by CatalogEntry.Source and
// `lmbench -list-machines`.
const (
	// SourceBuiltin marks profiles shipped with the binary: the
	// compiled catalog.go entries plus the embedded profiles/builtin
	// data files (Table-1 remainder, simsmp-scaled MP variants).
	SourceBuiltin = "builtin"
	// SourceFile marks profiles loaded from disk at run time
	// (-profile file-or-dir, WithProfileFile, Catalog.LoadPath).
	SourceFile = "file"
	// SourceCalibrated marks profiles produced by the calibration loop
	// (internal/calibrate): the embedded profiles/calibrated data files
	// and anything registered via Add(p, SourceCalibrated).
	SourceCalibrated = "calibrated"
)

// CatalogEntry is one catalog profile plus its provenance.
type CatalogEntry struct {
	Profile Profile
	// Source is SourceBuiltin, SourceFile or SourceCalibrated.
	Source string
	// Path is the file the profile was loaded from, when Source is
	// SourceFile ("" otherwise).
	Path string
}

// Catalog is a named registry of machine profiles: the built-ins plus
// profiles loaded from data files or produced by calibration. Name
// resolution everywhere a machine name is accepted (-machine, fleet
// units, unit-cache keys) goes through a Catalog; the package-level
// Names/ByName/All stay restricted to the compiled-in profiles so the
// golden byte-identity suite covers a fixed testbed.
//
// Merge rule: later additions shadow earlier ones by name. Default()
// seeds compiled built-ins first, then the embedded data files, so a
// file loaded at run time shadows a built-in of the same name — which
// is what lets `-profile perturbed.json` substitute a variant of
// "Linux/i686" without renaming it.
//
// A Catalog is safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	entries []CatalogEntry // insertion order; resolution scans backwards
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{} }

//go:embed profiles
var profileFS embed.FS

// defaultEntries parses the embedded data files once; Default() copies
// from it, so mutating one Default catalog never leaks into another.
var defaultEntries = sync.OnceValues(func() ([]CatalogEntry, error) {
	var entries []CatalogEntry
	for _, p := range All() {
		entries = append(entries, CatalogEntry{Profile: p, Source: SourceBuiltin})
	}
	for dir, source := range map[string]string{
		"profiles/builtin":    SourceBuiltin,
		"profiles/calibrated": SourceCalibrated,
	} {
		names, err := fs.Glob(profileFS, dir+"/*.json")
		if err != nil {
			return nil, err
		}
		sort.Strings(names)
		for _, name := range names {
			data, err := fs.ReadFile(profileFS, name)
			if err != nil {
				return nil, fmt.Errorf("machines: embedded %s: %w", name, err)
			}
			p, err := DecodeProfile(data)
			if err != nil {
				return nil, fmt.Errorf("machines: embedded %s: %w", name, err)
			}
			entries = append(entries, CatalogEntry{Profile: p, Source: source})
		}
	}
	return entries, nil
})

// Default returns a fresh catalog holding every profile shipped with
// the binary: the compiled built-ins plus the embedded data files.
// Each call returns an independent catalog, so loading files into one
// never affects another.
func Default() *Catalog {
	entries, err := defaultEntries()
	if err != nil {
		// Embedded data is compiled in and covered by tests; a decode
		// failure here is a build defect, not a runtime condition.
		panic(err)
	}
	c := &Catalog{entries: make([]CatalogEntry, len(entries))}
	copy(c.entries, entries)
	return c
}

// add appends an entry after validation; the newest entry for a name
// wins resolution (shadowing).
func (c *Catalog) add(e CatalogEntry) error {
	if err := ValidateProfile(e.Profile); err != nil {
		return err
	}
	c.mu.Lock()
	c.entries = append(c.entries, e)
	c.mu.Unlock()
	return nil
}

// Add registers p under source (SourceBuiltin, SourceFile or
// SourceCalibrated), shadowing any earlier profile of the same name.
func (c *Catalog) Add(p Profile, source string) error {
	switch source {
	case SourceBuiltin, SourceFile, SourceCalibrated:
	default:
		return fmt.Errorf("machines: unknown profile source %q", source)
	}
	return c.add(CatalogEntry{Profile: p, Source: source})
}

// LoadFile loads one profile data file into the catalog and returns
// the loaded profile.
func (c *Catalog) LoadFile(path string) (Profile, error) {
	p, err := LoadProfileFile(path)
	if err != nil {
		return Profile{}, err
	}
	if err := c.add(CatalogEntry{Profile: p, Source: SourceFile, Path: path}); err != nil {
		return Profile{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// LoadDir loads every *.json file in dir (sorted by name, so later
// files shadow earlier ones deterministically) and returns how many
// profiles were added.
func (c *Catalog) LoadDir(dir string) (int, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		if _, err := c.LoadFile(filepath.Join(dir, de.Name())); err != nil {
			return n, err
		}
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("machines: no *.json profiles in %s", dir)
	}
	return n, nil
}

// LoadPath loads a profile file, or every profile in a directory.
func (c *Catalog) LoadPath(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if info.IsDir() {
		_, err := c.LoadDir(path)
		return err
	}
	_, err = c.LoadFile(path)
	return err
}

// Entry resolves name to its catalog entry; the newest registration of
// a name wins.
func (c *Catalog) Entry(name string) (CatalogEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := len(c.entries) - 1; i >= 0; i-- {
		if c.entries[i].Profile.Name == name {
			return c.entries[i], true
		}
	}
	return CatalogEntry{}, false
}

// ByName resolves name to its profile. The signature matches the
// package-level ByName, so a Catalog drops in anywhere a resolver
// function is accepted (e.g. unitcache.Config.Resolve).
func (c *Catalog) ByName(name string) (Profile, bool) {
	e, ok := c.Entry(name)
	return e.Profile, ok
}

// Names returns the catalog's resolvable names, sorted.
func (c *Catalog) Names() []string {
	seen := map[string]bool{}
	c.mu.RLock()
	for _, e := range c.entries {
		seen[e.Profile.Name] = true
	}
	c.mu.RUnlock()
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Entries returns one entry per resolvable name (the winning
// registration), sorted by name.
func (c *Catalog) Entries() []CatalogEntry {
	names := c.Names()
	out := make([]CatalogEntry, 0, len(names))
	for _, n := range names {
		e, _ := c.Entry(n)
		out = append(out, e)
	}
	return out
}

// Len counts resolvable names.
func (c *Catalog) Len() int { return len(c.Names()) }
