package lmbench

import (
	"io"

	"repro/internal/machines"
)

// This file re-exports the declarative machine-profile surface: the
// canonical JSON encoding of simulated-machine profiles and the
// catalog registry that merges the built-in testbed with profiles
// loaded from files or fitted by the calibrator. A profile file is the
// portable form of a simulated machine — `lmbench -profile m.json
// -machine <name>` and a compiled-in profile with the same values
// produce byte-identical databases.

// Profile declares a simulated machine: identity, cache/memory
// geometry and the primitive costs the paper's tables report. Build
// one with NewSimMachineIn after registering it in a Catalog, or feed
// it to Calibrate as the starting point of a fit.
type Profile = machines.Profile

// Catalog is a registry of named profiles: the shipped set (compiled
// built-ins plus embedded data files) optionally extended with
// file-loaded and calibrated profiles. Later additions shadow earlier
// names.
type Catalog = machines.Catalog

// DefaultCatalog returns a fresh copy of the shipped catalog — the
// compiled Table-1 testbed plus the embedded data-file profiles
// (remaining Table-1 machines, MP variants, modern geometries).
// Mutations stay local to the returned copy.
func DefaultCatalog() *Catalog { return machines.Default() }

// NewCatalog returns an empty catalog, for callers composing one from
// scratch rather than extending the shipped set.
func NewCatalog() *Catalog { return machines.NewCatalog() }

// WriteProfileFile writes p's canonical encoding to path.
func WriteProfileFile(path string, p Profile) error { return machines.WriteProfileFile(path, p) }

// EncodeProfile renders p in the canonical JSON encoding: the byte
// form that loads back (Catalog.LoadFile) to an identical profile and
// an identical fingerprint.
func EncodeProfile(p Profile) ([]byte, error) { return machines.EncodeProfile(p) }

// NewSimMachineIn builds a simulated machine by name from cat (nil =
// the shipped catalog).
func NewSimMachineIn(cat *Catalog, name string) (Machine, error) {
	if cat == nil {
		cat = machines.Default()
	}
	p, ok := cat.ByName(name)
	if !ok {
		return nil, &UnknownMachineError{Name: name}
	}
	return machines.Build(p)
}

// RenderMachineList writes a human-readable catalog listing — name,
// CPU, OS, geometry summary and provenance — the `-list-machines`
// format.
func RenderMachineList(w io.Writer, cat *Catalog) error {
	if cat == nil {
		cat = machines.Default()
	}
	return machines.RenderList(w, cat)
}
