package simmem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ptime"
	"repro/internal/sim"
)

// refCache is an independent reference model of the cache with the
// seed's observable semantics, written as the obvious O(assoc) scans:
// exact per-set LRU on valid lines, no eviction while a set has an
// invalid way, sticky dirty bits, writeback marking dirty without an
// LRU refresh. The optimized cache (MRU hints, tag→way index, intrusive
// recency list, pow2 set arithmetic, direct-mapped fast paths) must be
// indistinguishable from it on every observable of a random trace —
// that is the unit-level half of the byte-identity guarantee.
type refCache struct {
	nsets, assoc int
	lineSize     uint64
	valid, dirty [][]bool
	tag          [][]uint64
	stamp        [][]uint64
	tick         uint64
}

func newRefCache(size, lineSize, assoc int) *refCache {
	lines := size / lineSize
	if assoc <= 0 || assoc > lines {
		assoc = lines
	}
	nsets := lines / assoc
	r := &refCache{nsets: nsets, assoc: assoc, lineSize: uint64(lineSize)}
	for s := 0; s < nsets; s++ {
		r.valid = append(r.valid, make([]bool, assoc))
		r.dirty = append(r.dirty, make([]bool, assoc))
		r.tag = append(r.tag, make([]uint64, assoc))
		r.stamp = append(r.stamp, make([]uint64, assoc))
	}
	return r
}

func (r *refCache) setFor(addr uint64) (int, uint64) {
	line := addr / r.lineSize
	return int(line % uint64(r.nsets)), line / uint64(r.nsets)
}

func (r *refCache) lookup(addr uint64, markDirty bool) bool {
	set, tag := r.setFor(addr)
	for w := 0; w < r.assoc; w++ {
		if r.valid[set][w] && r.tag[set][w] == tag {
			r.tick++
			r.stamp[set][w] = r.tick
			if markDirty {
				r.dirty[set][w] = true
			}
			return true
		}
	}
	return false
}

func (r *refCache) insert(addr uint64, dirty bool) (evictedDirty, evictedValid bool) {
	set, tag := r.setFor(addr)
	// Refresh, not evict, if the tag is already resident.
	for w := 0; w < r.assoc; w++ {
		if r.valid[set][w] && r.tag[set][w] == tag {
			r.tick++
			r.stamp[set][w] = r.tick
			r.dirty[set][w] = r.dirty[set][w] || dirty
			return false, false
		}
	}
	victim, haveInvalid := 0, false
	for w := 0; w < r.assoc; w++ {
		if !r.valid[set][w] {
			victim, haveInvalid = w, true
			break
		}
	}
	if !haveInvalid {
		for w := 1; w < r.assoc; w++ {
			if r.stamp[set][w] < r.stamp[set][victim] {
				victim = w
			}
		}
		evictedDirty, evictedValid = r.dirty[set][victim], true
	}
	r.tick++
	r.valid[set][victim] = true
	r.dirty[set][victim] = dirty
	r.tag[set][victim] = tag
	r.stamp[set][victim] = r.tick
	return evictedDirty, evictedValid
}

func (r *refCache) invalidate(addr uint64) (wasValid, wasDirty bool) {
	set, tag := r.setFor(addr)
	for w := 0; w < r.assoc; w++ {
		if r.valid[set][w] && r.tag[set][w] == tag {
			r.valid[set][w] = false
			return true, r.dirty[set][w]
		}
	}
	return false, false
}

func (r *refCache) writeback(addr uint64) bool {
	set, tag := r.setFor(addr)
	for w := 0; w < r.assoc; w++ {
		if r.valid[set][w] && r.tag[set][w] == tag {
			r.dirty[set][w] = true
			return true
		}
	}
	return false
}

// TestCacheMatchesReferenceModel drives the optimized cache and the
// reference model through identical random traces of every operation
// and demands identical observables at every step, across the
// geometries that exercise every fast path: direct-mapped, the MRU-hint
// scan, and both fully-associative modes (list + index above the
// fullyAssocMin threshold, plain scan below it via a sub-threshold
// associativity).
func TestCacheMatchesReferenceModel(t *testing.T) {
	type geom struct {
		name              string
		size, line, assoc int
	}
	geoms := []geom{
		{"direct", 4096, 32, 1},
		{"2way", 4096, 32, 2},
		{"4way", 8192, 64, 4},
		{"fullyassoc", 16 * 32, 32, 0},      // 16 ways: list + index mode
		{"fullyassoc-odd", 8 * 48, 48, 0},   // full mode, non-pow2 line size
		{"fullyassoc-small", 4 * 32, 32, 0}, // below fullyAssocMin: plain scan
		{"nonpow2-sets", 3 * 4 * 32, 32, 4},
	}
	// Every distinct cache level and TLB of the compiled profiles.
	seen := map[geom]bool{}
	for _, pg := range profileGeoms {
		var levels []geom
		for _, c := range pg.caches {
			levels = append(levels, geom{"", int(c.Size), c.LineSize, c.Assoc})
		}
		levels = append(levels, geom{"", pg.tlb.Entries * pg.tlb.PageSize, pg.tlb.PageSize, pg.tlb.Assoc})
		for _, l := range levels {
			if !seen[l] {
				seen[l] = true
				l.name = fmt.Sprintf("%s-%dB-%dB-%dway", pg.name, l.size, l.line, l.assoc)
				geoms = append(geoms, l)
			}
		}
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			c, err := newCache(CacheConfig{Name: "t", Size: int64(g.size), LineSize: g.line, Assoc: g.assoc})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(g.size, g.line, g.assoc)
			rng := rand.New(rand.NewSource(int64(g.size) ^ int64(g.assoc)<<7))
			// Addresses drawn from ~4x the cache size force a steady
			// mix of hits, misses, refreshes and evictions.
			span := uint64(4*g.size) / uint64(g.line)
			for step := 0; step < 20000; step++ {
				addr := (rng.Uint64() % span) * uint64(g.line)
				addr += rng.Uint64() % uint64(g.line) // sub-line offset
				ctx := fmt.Sprintf("step %d addr %#x", step, addr)
				switch op := rng.Intn(10); {
				case op < 5: // lookup, sometimes marking dirty
					md := rng.Intn(2) == 0
					if got, want := c.lookup(addr, md), ref.lookup(addr, md); got != want {
						t.Fatalf("%s: lookup(md=%v) = %v, want %v", ctx, md, got, want)
					}
				case op < 8: // insert, as a fill (clean) or store-allocate (dirty)
					d := rng.Intn(2) == 0
					_, gd, gv := c.insert(addr, d)
					wd, wv := ref.insert(addr, d)
					if gd != wd || gv != wv {
						t.Fatalf("%s: insert(dirty=%v) evicted (dirty=%v valid=%v), want (dirty=%v valid=%v)",
							ctx, d, gd, gv, wd, wv)
					}
				case op < 9:
					gv, gd := c.invalidate(addr)
					wv, wd := ref.invalidate(addr)
					if gv != wv || gd != wd {
						t.Fatalf("%s: invalidate = (%v,%v), want (%v,%v)", ctx, gv, gd, wv, wd)
					}
				default:
					if got, want := c.writeback(addr), ref.writeback(addr); got != want {
						t.Fatalf("%s: writeback = %v, want %v", ctx, got, want)
					}
				}
			}
			// Final resident set must agree exactly: every line the
			// reference holds is in the cache and vice versa.
			for s := 0; s < ref.nsets; s++ {
				for w := 0; w < ref.assoc; w++ {
					if !ref.valid[s][w] {
						continue
					}
					line := ref.tag[s][w]*uint64(ref.nsets) + uint64(s)
					if !c.contains(line * ref.lineSize) {
						t.Errorf("reference holds line %#x, cache does not", line*ref.lineSize)
					}
				}
			}
		})
	}
}

// hierGeom is one memory-system geometry: cache levels, TLB and the
// libc copy mode.
type hierGeom struct {
	name   string
	caches []CacheConfig
	tlb    TLBConfig
	hwCopy bool
}

// profileGeoms transcribes the cache, TLB and copy-mode geometry of the
// 15 compiled machine profiles (internal/machines). The external
// TestProfileGeomsMatchCompiled keeps the two in step.
var profileGeoms = []hierGeom{
	{"Linux/i686", []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 10}, {Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 4, LatencyNS: 30}},
		TLBConfig{Entries: 64, PageSize: 4096, Assoc: 4, MissNS: 120}, false},
	{"Linux/i586", []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 8}, {Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 1, LatencyNS: 95}},
		TLBConfig{Entries: 64, PageSize: 4096, Assoc: 4, MissNS: 150}, false},
	{"Linux/Alpha", []CacheConfig{{Name: "L1", Size: 16 << 10, LineSize: 32, Assoc: 1, LatencyNS: 7}, {Name: "L2", Size: 256 << 10, LineSize: 64, Assoc: 1, LatencyNS: 70}},
		TLBConfig{Entries: 32, PageSize: 8192, MissNS: 200}, false},
	{"IBM Power2", []CacheConfig{{Name: "L1", Size: 256 << 10, LineSize: 128, Assoc: 4, LatencyNS: 14}},
		TLBConfig{Entries: 128, PageSize: 4096, Assoc: 2, MissNS: 100}, false},
	{"IBM PowerPC", []CacheConfig{{Name: "L1", Size: 16 << 10, LineSize: 32, Assoc: 4, LatencyNS: 7}, {Name: "L2", Size: 512 << 10, LineSize: 32, Assoc: 1, LatencyNS: 164}},
		TLBConfig{Entries: 64, PageSize: 4096, Assoc: 2, MissNS: 170}, false},
	{"HP K210", []CacheConfig{{Name: "L1", Size: 256 << 10, LineSize: 32, Assoc: 1, LatencyNS: 8}},
		TLBConfig{Entries: 96, PageSize: 4096, MissNS: 130}, true},
	{"Sun Ultra1", []CacheConfig{{Name: "L1", Size: 16 << 10, LineSize: 32, Assoc: 1, LatencyNS: 6}, {Name: "L2", Size: 512 << 10, LineSize: 64, Assoc: 1, LatencyNS: 42}},
		TLBConfig{Entries: 64, PageSize: 8192, MissNS: 120}, true},
	{"Sun SC1000", []CacheConfig{{Name: "L1", Size: 16 << 10, LineSize: 32, Assoc: 4, LatencyNS: 20}, {Name: "L2", Size: 1 << 20, LineSize: 64, Assoc: 1, LatencyNS: 140}},
		TLBConfig{Entries: 64, PageSize: 4096, MissNS: 300}, false},
	{"Solaris/i686", []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 14}, {Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 4, LatencyNS: 48}},
		TLBConfig{Entries: 64, PageSize: 4096, Assoc: 4, MissNS: 140}, false},
	{"Unixware/i686", []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5}, {Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 4, LatencyNS: 25}},
		TLBConfig{Entries: 64, PageSize: 4096, Assoc: 4, MissNS: 120}, false},
	{"FreeBSD/i586", []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 7}, {Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 1, LatencyNS: 95}},
		TLBConfig{Entries: 64, PageSize: 4096, Assoc: 4, MissNS: 150}, false},
	{"SGI Indigo2", []CacheConfig{{Name: "L1", Size: 16 << 10, LineSize: 32, Assoc: 1, LatencyNS: 10}, {Name: "L2", Size: 1 << 20, LineSize: 128, Assoc: 1, LatencyNS: 64}},
		TLBConfig{Entries: 48, PageSize: 4096, MissNS: 400}, false},
	{"SGI Challenge", []CacheConfig{{Name: "L1", Size: 16 << 10, LineSize: 32, Assoc: 1, LatencyNS: 10}, {Name: "L2", Size: 4 << 20, LineSize: 128, Assoc: 1, LatencyNS: 64}},
		TLBConfig{Entries: 48, PageSize: 4096, MissNS: 400}, false},
	{"DEC Alpha@150", []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 1, LatencyNS: 13}, {Name: "L2", Size: 512 << 10, LineSize: 32, Assoc: 1, LatencyNS: 67}},
		TLBConfig{Entries: 32, PageSize: 8192, MissNS: 250}, false},
	{"DEC Alpha@300", []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 1, LatencyNS: 3.3}, {Name: "L2", Size: 96 << 10, LineSize: 64, Assoc: 3, LatencyNS: 25}, {Name: "L3", Size: 4 << 20, LineSize: 64, Assoc: 1, LatencyNS: 66}},
		TLBConfig{Entries: 64, PageSize: 8192, MissNS: 100}, false},
}

// memoTwin is one side of the memo-on/memo-off comparison: a hierarchy
// plus the chases the program walks on it.
type memoTwin struct {
	h      *Hierarchy
	clk    *sim.Clock
	chases []*Chase
	pages  *PageChase
}

func newMemoTwin(t *testing.T, g hierGeom, noWriteAllocate, noMemo bool) *memoTwin {
	t.Helper()
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 133, IssueWidth: 2})
	h, err := New(cpu, Config{
		Caches:          g.caches,
		DRAM:            DRAMConfig{LatencyNS: 300, FillNS: 110, WritebackNS: 130},
		TLB:             g.tlb,
		HWCopy:          g.hwCopy,
		NoWriteAllocate: noWriteAllocate,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.noMemo = noMemo
	return &memoTwin{h: h, clk: clk}
}

// memoCall is one call of a random program, applied to a twin.
type memoCall struct {
	kind string
	do   func(tw *memoTwin)
}

// TestPassMemoMatchesSimulation runs random programs on two twins of
// every compiled profile's geometry, with write-allocate and without:
// one hierarchy skips steady-state passes, the other simulates every
// access. After every call the clock, every Stats counter, the chase
// positions and the canonical cache/TLB state must agree. The program
// repeats whole stream calls, read loops and chase walks (whole and
// partial laps, ragged lists, all three variants) with loads, stores,
// flushes, resets and page chases in between; every memoizable kind
// must actually be skipped somewhere in the program.
func TestPassMemoMatchesSimulation(t *testing.T) {
	for i, g := range profileGeoms {
		for _, nwa := range []bool{false, true} {
			name := g.name
			if nwa {
				name += "+no-write-allocate"
			}
			seed := int64(2 * i)
			if nwa {
				seed++
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				testMemoTwins(t, g, nwa, seed)
			})
		}
	}
}

func testMemoTwins(t *testing.T, g hierGeom, nwa bool, seed int64) {
	on, off := newMemoTwin(t, g, nwa, false), newMemoTwin(t, g, nwa, true)
	h := on.h
	chunk := h.chunk
	// unit is the stream length whose probes reach the hierarchy's
	// line count: the smallest pass the memo digests.
	unit := h.lines * chunk
	var regions [4]uint64
	for _, tw := range []*memoTwin{on, off} {
		for i := range regions {
			regions[i] = tw.h.Alloc(3 * unit)
		}
	}
	chaseBase := uint64(0)
	type chaseSpec struct{ size, stride int64 }
	specs := []chaseSpec{
		{5 * chunk, chunk},                       // tiny laps
		{h.lines / 4 * 2 * chunk, 2 * chunk},     // laps below the gate
		{(h.lines + 3) * chunk, chunk},           // one lap reaches the gate
		{(h.lines/2 + 1) * 3 * chunk, 3 * chunk}, // non-pow2 stride
		{h.lines / 2 * (chunk / 2), chunk / 2},   // sub-line stride
		{(h.lines/3)*chunk + chunk/2, chunk},     // ragged: size%stride != 0
		{(h.lines + 3) * chunk, chunk},           // specs[2] again, walked from elsewhere
	}
	var maxSize int64
	for _, sp := range specs {
		maxSize = max(maxSize, sp.size)
	}
	pageSize := h.PageSize()
	var pages []uint64
	for _, tw := range []*memoTwin{on, off} {
		chaseBase = tw.h.Alloc(maxSize)
		for _, sp := range specs {
			tw.chases = append(tw.chases, tw.h.NewChase(chaseBase, sp.size, sp.stride))
		}
		pages = tw.h.AllocPages(24, pageSize, rand.New(rand.NewSource(seed)))
		tw.pages = tw.h.NewPageChase(pages)
	}
	mark := h.Mark()
	if off.h.Mark() != mark {
		t.Fatal("twins allocated differently")
	}

	rng := rand.New(rand.NewSource(seed))
	sizes := func() int64 {
		return []int64{unit / 4, unit, 2*unit - 3*chunk, unit + chunk/2}[rng.Intn(4)]
	}
	region := func() uint64 { return regions[rng.Intn(len(regions))] }
	stream := func(kind int) memoCall {
		a, b, c, n := region(), region(), region(), sizes()
		switch kind {
		case 0:
			return memoCall{"read", func(tw *memoTwin) { tw.h.StreamRead(a, n) }}
		case 1:
			return memoCall{"write", func(tw *memoTwin) { tw.h.StreamWrite(a, n) }}
		case 2:
			hw := rng.Intn(2) == 0
			return memoCall{"copy", func(tw *memoTwin) { tw.h.StreamCopyMode(a, b, n, hw) }}
		case 3:
			srcs := []uint64{b, c}[:1+rng.Intn(2)]
			ops := 2 + rng.Intn(4)
			return memoCall{"kernel", func(tw *memoTwin) { tw.h.StreamKernel(a, srcs, n, ops) }}
		default:
			call := []int64{n, n / 3, 64 << 10}[rng.Intn(3)]
			per := ptime.Duration(rng.Intn(2)) * 1500
			return memoCall{"readloop", func(tw *memoTwin) { tw.h.ReadLoop(a, b, n, call, per) }}
		}
	}
	walk := func() memoCall {
		ci, variant := rng.Intn(len(specs)), rng.Intn(3)
		sp := specs[ci]
		lap := (sp.size + sp.stride - 1) / sp.stride
		n := []int64{lap - 1, lap, 3*lap + 1, h.lines + 2*lap + 1}[rng.Intn(4)]
		return memoCall{[]string{"walk", "walkdirty", "walkwrite"}[variant], func(tw *memoTwin) {
			c := tw.chases[ci]
			[]func(int64){c.Walk, c.WalkDirty, c.WalkWrite}[variant](n)
		}}
	}
	random := func() memoCall {
		switch op := rng.Intn(20); {
		case op < 9:
			return stream(op % 5)
		case op < 15:
			return walk()
		case op == 15:
			a := region() + uint64(rng.Int63n(unit))
			return memoCall{"load", func(tw *memoTwin) { tw.h.Load(a) }}
		case op == 16:
			a := region() + uint64(rng.Int63n(unit))
			return memoCall{"store", func(tw *memoTwin) { tw.h.Store(a) }}
		case op == 17:
			return memoCall{"flush", func(tw *memoTwin) { tw.h.FlushAll() }}
		case op == 18:
			return memoCall{"reset", func(tw *memoTwin) { tw.h.Reset(mark) }}
		default:
			n := int64(1 + rng.Intn(60))
			return memoCall{"pagechase", func(tw *memoTwin) { tw.pages.Walk(n) }}
		}
	}

	// A fixed tour first repeats every memoizable kind five times at
	// gate-reaching sizes — a written-back dirty bit can take a third
	// pass to settle — so each kind is skipped at least once; random
	// calls, new or reissued, each repeated up to four times, follow.
	// Each is followed by a neighbour differing in one key argument,
	// which must not be charged from the memo.
	a, b, c := regions[0], regions[1], regions[2]
	tour := []struct{ fixed, neighbour memoCall }{
		{memoCall{"read", func(tw *memoTwin) { tw.h.StreamRead(a, 2*unit) }},
			memoCall{"read", func(tw *memoTwin) { tw.h.StreamRead(a, 2*unit-chunk) }}},
		{memoCall{"write", func(tw *memoTwin) { tw.h.StreamWrite(b, 2*unit) }},
			memoCall{"write", func(tw *memoTwin) { tw.h.StreamWrite(b+uint64(chunk), 2*unit) }}},
		{memoCall{"copy", func(tw *memoTwin) { tw.h.StreamCopy(a, b, 2*unit) }},
			memoCall{"copy", func(tw *memoTwin) { tw.h.StreamCopyMode(a, b, 2*unit, !g.hwCopy) }}},
		{memoCall{"kernel", func(tw *memoTwin) { tw.h.StreamKernel(a, []uint64{b, c}, 2*unit, 5) }},
			memoCall{"kernel", func(tw *memoTwin) { tw.h.StreamKernel(a, []uint64{b, c}, 2*unit, 2) }}},
		{memoCall{"readloop", func(tw *memoTwin) { tw.h.ReadLoop(a, c, 2*unit, unit/2, 2000) }},
			memoCall{"readloop", func(tw *memoTwin) { tw.h.ReadLoop(a, c, 2*unit, unit/2, 3000) }}},
	}
	var prog []memoCall
	for _, tc := range tour {
		for i := 0; i < 5; i++ {
			prog = append(prog, tc.fixed)
		}
		prog = append(prog, tc.neighbour)
	}
	// Whole laps of the gate-reaching chase in every variant; then the
	// same list walked from half a lap further on, whose laps are a
	// different pass.
	const gateChase, elsewhere = 2, 6
	lap := specs[gateChase].size / specs[gateChase].stride
	prog = append(prog,
		memoCall{"walk", func(tw *memoTwin) { tw.chases[gateChase].Walk(5 * lap) }},
		memoCall{"walkdirty", func(tw *memoTwin) { tw.chases[gateChase].WalkDirty(5 * lap) }},
		memoCall{"walkwrite", func(tw *memoTwin) { tw.chases[gateChase].WalkWrite(5 * lap) }},
		memoCall{"walk", func(tw *memoTwin) { tw.chases[elsewhere].Walk(lap / 2) }},
		memoCall{"walk", func(tw *memoTwin) { tw.chases[gateChase].Walk(5 * lap) }},
		memoCall{"walk", func(tw *memoTwin) { tw.chases[elsewhere].Walk(2 * lap) }},
	)
	// Calls already issued come back often, so a pass that reached its
	// fixed point meets loads, stores and other passes in between.
	var seen []memoCall
	for len(prog) < 150 {
		c := random()
		if len(seen) > 0 && rng.Intn(2) == 0 {
			c = seen[rng.Intn(len(seen))]
		}
		seen = append(seen, c)
		for r := 1 + rng.Intn(4); r > 0; r-- {
			prog = append(prog, c)
		}
	}

	skipped := map[string]int64{}
	for step, c := range prog {
		before := on.h.Stats().PassesSkipped
		c.do(on)
		c.do(off)
		got, want := on.h.Stats(), off.h.Stats()
		skipped[c.kind] += got.PassesSkipped - before
		got.PassesSkipped = 0
		ctx := fmt.Sprintf("step %d (%s)", step, c.kind)
		if on.clk.Now() != off.clk.Now() {
			t.Fatalf("%s: clock %v, want %v", ctx, on.clk.Now(), off.clk.Now())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stats %+v, want %+v", ctx, got, want)
		}
		for i := range on.chases {
			if on.chases[i].off != off.chases[i].off {
				t.Fatalf("%s: chase %d at offset %d, want %d", ctx, i, on.chases[i].off, off.chases[i].off)
			}
		}
		if on.h.digest() != off.h.digest() {
			t.Fatalf("%s: canonical cache/TLB state diverged", ctx)
		}
	}
	if off.h.Stats().PassesSkipped != 0 {
		t.Error("memo-off twin skipped passes")
	}
	for _, kind := range []string{"read", "write", "copy", "kernel", "readloop", "walk", "walkdirty", "walkwrite"} {
		if skipped[kind] == 0 {
			t.Errorf("no %s pass was skipped (skips by kind: %v)", kind, skipped)
		}
	}
}
