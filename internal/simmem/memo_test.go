package simmem

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// digestHierarchy builds a hierarchy with one level in each probe mode
// (set-associative L1, direct-mapped L2, fully-associative L3) and a
// fully-associative TLB, warmed by a fixed mix of loads and stores so
// that every level holds clean and dirty lines.
func digestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100, IssueWidth: 2})
	h, err := New(cpu, Config{
		Caches: []CacheConfig{
			{Name: "L1", Size: 1 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5},
			{Name: "L2", Size: 4 << 10, LineSize: 32, Assoc: 1, LatencyNS: 20},
			{Name: "L3", Size: 16 << 10, LineSize: 64, LatencyNS: 40},
		},
		DRAM: DRAMConfig{LatencyNS: 200},
		TLB:  TLBConfig{Entries: 16, PageSize: 4096, MissNS: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := h.Alloc(64 << 10)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		a := base + uint64(rng.Intn(24<<10))
		if rng.Intn(3) == 0 {
			h.Store(a)
		} else {
			h.Load(a)
		}
	}
	return h
}

// fullSet returns the ways of a set-associative cache's first set whose
// every way is valid, and the set's index.
func fullSet(t *testing.T, c *cache) ([]line, uint64) {
	t.Helper()
	for s := uint64(0); s < c.nsets; s++ {
		ways := c.lines[s*uint64(c.assoc) : (s+1)*uint64(c.assoc)]
		valid := 0
		for _, l := range ways {
			if l.valid {
				valid++
			}
		}
		if valid == c.assoc && int(c.mru[s]) < c.assoc {
			return ways, s
		}
	}
	t.Fatal("no full set")
	return nil, 0
}

// firstValid returns the first valid line of a cache.
func firstValid(t *testing.T, c *cache) *line {
	t.Helper()
	for i := range c.lines {
		if c.lines[i].valid {
			return &c.lines[i]
		}
	}
	t.Fatal("cache is empty")
	return nil
}

// TestDigestCoversCanonicalState pins the state digest's encoding:
// changing any one canonical component — a tag, a dirty bit, the
// recency order of two ways, a set's MRU hint, a direct-mapped line,
// the fully-associative list order, a TLB entry — changes the digest,
// while renaming what no access can observe — which way holds a line
// (the hint moved along), the absolute lru tick values, the free-way
// order — does not. A digest that dropped a component would let the
// memo replay a pass from a state it never proved.
func TestDigestCoversCanonicalState(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(t *testing.T, h *Hierarchy)
		changes bool
	}{
		{"tag", func(t *testing.T, h *Hierarchy) {
			firstValid(t, h.caches[0]).tag ^= 1 << 40
		}, true},
		{"dirty bit", func(t *testing.T, h *Hierarchy) {
			l := firstValid(t, h.caches[0])
			l.dirty = !l.dirty
		}, true},
		{"recency order", func(t *testing.T, h *Hierarchy) {
			ways, _ := fullSet(t, h.caches[0])
			ways[0].lru, ways[1].lru = ways[1].lru, ways[0].lru
		}, true},
		{"MRU hint", func(t *testing.T, h *Hierarchy) {
			c := h.caches[0]
			_, s := fullSet(t, c)
			c.mru[s] = 1 - c.mru[s]
		}, true},
		{"MRU hint on an invalid way", func(t *testing.T, h *Hierarchy) {
			c := h.caches[0]
			ways, s := fullSet(t, c)
			ways[1-c.mru[s]] = line{}
			before := h.digest()
			c.mru[s] = 1 - c.mru[s]
			if h.digest() == before {
				t.Error("moving the hint from a valid to an invalid way kept the digest")
			}
		}, true},
		{"direct-mapped line", func(t *testing.T, h *Hierarchy) {
			*firstValid(t, h.caches[1]) = line{}
		}, true},
		{"fully-associative list order", func(t *testing.T, h *Hierarchy) {
			c := h.caches[2]
			c.moveToFront(c.tailW)
		}, true},
		{"TLB entry", func(t *testing.T, h *Hierarchy) {
			c := h.tlb
			l := &c.lines[c.headW]
			delete(c.idx, l.tag)
			l.tag += 1 << 30
			c.idx[l.tag] = c.headW
		}, true},
		{"ways permuted within a set", func(t *testing.T, h *Hierarchy) {
			c := h.caches[0]
			ways, s := fullSet(t, c)
			ways[0], ways[1] = ways[1], ways[0]
			c.mru[s] = 1 - c.mru[s]
		}, false},
		{"lru ticks renumbered in order", func(t *testing.T, h *Hierarchy) {
			for _, c := range h.caches {
				for i := range c.lines {
					c.lines[i].lru = 3*c.lines[i].lru + 11
				}
				c.tick = 3*c.tick + 11
			}
		}, false},
		{"fully-associative ways renumbered", func(t *testing.T, h *Hierarchy) {
			// Move the TLB's LRU entry into a free way: same list
			// position, different way number, different free order.
			c := h.tlb
			if len(c.freeW) == 0 || c.headW == c.tailW {
				t.Fatal("TLB needs a free way and two entries")
			}
			old := c.tailW
			w := c.freeW[len(c.freeW)-1]
			c.freeW = c.freeW[:len(c.freeW)-1]
			c.lines[w] = c.lines[old]
			c.idx[c.lines[w].tag] = w
			prev := c.prevW[old]
			c.unlink(old)
			c.lines[old] = line{}
			c.freeW = append([]int32{old}, c.freeW...)
			c.prevW[w], c.nextW[w] = prev, -1
			c.nextW[prev] = w
			c.tailW = w
		}, false},
	}
	base := digestHierarchy(t).digest()
	if again := digestHierarchy(t).digest(); again != base {
		t.Fatal("digest is not deterministic")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := digestHierarchy(t)
			tc.mutate(t, h)
			if changed := h.digest() != base; changed != tc.changes {
				t.Errorf("digest changed = %v, want %v", changed, tc.changes)
			}
		})
	}
}
