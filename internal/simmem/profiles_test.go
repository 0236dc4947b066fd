package simmem_test

import (
	"reflect"
	"testing"

	"repro/internal/machines"
	"repro/internal/simmem"
)

// TestProfileGeomsMatchCompiled keeps the equivalence tests' geometry
// table (equiv_test.go) in step with the compiled machine profiles: the
// same machines, cache levels, TLBs and libc copy modes.
func TestProfileGeomsMatchCompiled(t *testing.T) {
	table := map[string]simmem.ProfileGeom{}
	for _, g := range simmem.ProfileGeoms() {
		table[g.Name] = g
	}
	all := machines.All()
	if len(table) != len(all) {
		t.Errorf("table has %d geometries, %d compiled profiles", len(table), len(all))
	}
	for _, p := range all {
		g, ok := table[p.Name]
		if !ok {
			t.Errorf("%s: missing from the geometry table", p.Name)
			continue
		}
		want := simmem.ProfileGeom{Name: p.Name, Caches: p.Caches, TLB: p.TLB, HWCopy: p.LibcCopyHW}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("%s: table %+v, compiled %+v", p.Name, g, want)
		}
	}
}
