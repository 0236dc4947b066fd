package simmem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// contains reports whether the cache currently holds addr's line.
func (c *cache) contains(addr uint64) bool {
	set, tag := c.setFor(addr)
	base := set * uint64(c.assoc)
	for i := uint64(0); i < uint64(c.assoc); i++ {
		l := c.lines[base+i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// TestQuickInclusionInvariant: after any random mix of loads and
// stores, every line in L1 must also be present in L2 (strict
// inclusion, enforced by back-invalidation).
func TestQuickInclusionInvariant(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		clk := &sim.Clock{}
		cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100})
		h, err := New(cpu, Config{
			Caches: []CacheConfig{
				{Name: "L1", Size: 1 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5},
				{Name: "L2", Size: 4 << 10, LineSize: 64, Assoc: 2, LatencyNS: 50},
			},
			DRAM: DRAMConfig{LatencyNS: 300},
		})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		base := h.Alloc(32 << 10)
		for _, op := range opsRaw {
			addr := base + uint64(op%1024)*32
			if rng.Intn(2) == 0 {
				h.Load(addr)
			} else {
				h.Store(addr)
			}
		}
		// Check inclusion: every valid L1 line's address is in L2.
		l1, l2 := h.caches[0], h.caches[1]
		for _, l := range l1.lines {
			if !l.valid {
				continue
			}
			addr := l.tag * uint64(l1.cfg.LineSize)
			if !l2.contains(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCacheFillsRetireNoWriteback checks the inclusion argument that
// lets loads and streams charge the fill's writeback time wherever the
// line came from: a victim of level i is still held by level i+1, which
// absorbs its writeback, so only a fill from memory retires a dirty
// line. On every compiled profile's geometry, random mixed loads and
// stores over 16 MB, half of them into a hot 64 KB set, must never
// retire one on a reference served by a cache level, while memory fills
// must retire some.
func TestCacheFillsRetireNoWriteback(t *testing.T) {
	const span, hot = 16 << 20, 64 << 10
	for i, g := range profileGeoms {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			h := newMemoTwin(t, g, false, true).h
			base := h.Alloc(span)
			rng := rand.New(rand.NewSource(int64(i)))
			var retired int
			for n := 0; n < 200_000; n++ {
				a := base + uint64(rng.Int63n(span))
				if rng.Intn(2) == 0 {
					a = base + uint64(rng.Int63n(hot))
				}
				write := rng.Intn(3) == 0
				lvl := h.level(a, write)
				wb := h.fetch(a, lvl, write)
				if lvl < len(h.caches) && wb != 0 {
					t.Fatalf("reference %d to %#x served by %s retired %v of writebacks", n, a, h.caches[lvl].cfg.Name, wb)
				}
				if wb > 0 {
					retired++
				}
			}
			if retired == 0 {
				t.Error("no fill from memory retired a dirty line")
			}
		})
	}
}

// refSetAssoc is an independent reference model of a set-associative
// LRU cache, used to cross-check hits/misses of the production cache
// on random traces.
type refSetAssoc struct {
	sets  int
	assoc int
	line  int
	data  [][]uint64 // per set, MRU last
}

func newRefSetAssoc(size, line, assoc int) *refSetAssoc {
	sets := size / line / assoc
	r := &refSetAssoc{sets: sets, assoc: assoc, line: line}
	r.data = make([][]uint64, sets)
	return r
}

func (r *refSetAssoc) access(addr uint64) bool {
	lineAddr := addr / uint64(r.line)
	set := int(lineAddr % uint64(r.sets))
	ways := r.data[set]
	for i, t := range ways {
		if t == lineAddr {
			r.data[set] = append(append(ways[:i:i], ways[i+1:]...), t)
			return true
		}
	}
	ways = append(ways, lineAddr)
	if len(ways) > r.assoc {
		ways = ways[1:]
	}
	r.data[set] = ways
	return false
}

// TestQuickSetAssocMatchesReference: the production cache and the
// reference model agree on every access of random traces across
// several geometries.
func TestQuickSetAssocMatchesReference(t *testing.T) {
	geoms := []struct{ size, line, assoc int }{
		{1 << 10, 32, 1},
		{2 << 10, 32, 2},
		{4 << 10, 64, 4},
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, g := range geoms {
			c, err := newCache(CacheConfig{Name: "t", Size: int64(g.size), LineSize: g.line, Assoc: g.assoc})
			if err != nil {
				return false
			}
			ref := newRefSetAssoc(g.size, g.line, g.assoc)
			for i := 0; i < int(n)+64; i++ {
				addr := uint64(rng.Intn(4 * g.size))
				got := c.lookup(addr, false)
				want := ref.access(addr)
				if got != want {
					return false
				}
				if !got {
					c.insert(addr, false)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAllocPagesUniqueAligned: randomized page placement never reuses
// a page and always aligns.
func TestAllocPagesUniqueAligned(t *testing.T) {
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100})
	h, err := New(cpu, Config{
		Caches: []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5}},
		DRAM:   DRAMConfig{LatencyNS: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		pages := h.AllocPages(64, 4096, rng)
		if len(pages) != 64 {
			t.Fatalf("got %d pages", len(pages))
		}
		for _, p := range pages {
			if p%4096 != 0 {
				t.Fatalf("unaligned page %x", p)
			}
			if seen[p] {
				t.Fatalf("page %x handed out twice", p)
			}
			seen[p] = true
		}
	}
	if h.AllocPages(0, 4096, rng) != nil {
		t.Error("zero pages should return nil")
	}
	if h.AllocPages(4, 0, rng) != nil {
		t.Error("zero page size should return nil")
	}
}

// TestPageChaseWalk exercises the scattered-page chase.
func TestPageChaseWalk(t *testing.T) {
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100})
	h, err := New(cpu, Config{
		Caches: []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5}},
		DRAM:   DRAMConfig{LatencyNS: 300},
		TLB:    TLBConfig{Entries: 8, PageSize: 4096, MissNS: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))

	// Few pages: fits TLB -> warm laps cost cache-hit time only.
	small := h.NewPageChase(h.AllocPages(4, 4096, rng))
	small.Walk(8) // warm
	before := clk.Now()
	small.Walk(100)
	smallPer := (clk.Now() - before).DivN(100)

	// Many pages: every access misses the 8-entry TLB.
	big := h.NewPageChase(h.AllocPages(64, 4096, rng))
	big.Walk(128)
	before = clk.Now()
	big.Walk(100)
	bigPer := (clk.Now() - before).DivN(100)

	if bigPer <= smallPer {
		t.Errorf("TLB-missing chase (%v) should cost more than fitting one (%v)", bigPer, smallPer)
	}
	if big.Length() != 64 {
		t.Errorf("Length = %d", big.Length())
	}
	empty := h.NewPageChase(nil)
	empty.Walk(10) // must not panic
}

// TestChaseVariantsSim: the dirty walk dirties lines (writebacks
// appear); the write walk stores.
func TestChaseVariantsSim(t *testing.T) {
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100})
	h, err := New(cpu, Config{
		Caches: []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5}},
		DRAM:   DRAMConfig{LatencyNS: 300, WritebackNS: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := h.Alloc(1 << 20)
	ch := h.NewChase(base, 1<<20, 64)
	ch.WalkDirty(2 * ch.Length())
	if st := h.Stats(); st.Writebacks == 0 {
		t.Error("dirty walk should produce writebacks")
	}
	// Dirty chase over memory costs more than clean.
	h2, _ := New(cpu, Config{
		Caches: []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5}},
		DRAM:   DRAMConfig{LatencyNS: 300, WritebackNS: 100},
	})
	base2 := h2.Alloc(1 << 20)
	clean := h2.NewChase(base2, 1<<20, 64)
	clean.Walk(clean.Length())
	before := clk.Now()
	clean.Walk(clean.Length())
	cleanTime := clk.Now() - before

	dirty := h2.NewChase(base2, 1<<20, 64)
	dirty.WalkDirty(dirty.Length())
	before = clk.Now()
	dirty.WalkDirty(dirty.Length())
	dirtyTime := clk.Now() - before
	if dirtyTime <= cleanTime {
		t.Errorf("dirty walk (%v) should cost more than clean (%v)", dirtyTime, cleanTime)
	}

	wr := h2.NewChase(base2, 1<<20, 64)
	wr.WalkWrite(100)
}
