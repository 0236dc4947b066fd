package simmem

// ProfileGeom is profileGeoms' row, exported to the external test that
// checks the table against the compiled machine profiles.
type ProfileGeom struct {
	Name   string
	Caches []CacheConfig
	TLB    TLBConfig
	HWCopy bool
}

// ProfileGeoms returns the equivalence tests' profile geometry table.
func ProfileGeoms() []ProfileGeom {
	out := make([]ProfileGeom, len(profileGeoms))
	for i, g := range profileGeoms {
		out[i] = ProfileGeom{g.name, g.caches, g.tlb, g.hwCopy}
	}
	return out
}
