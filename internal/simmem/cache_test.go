package simmem

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ptime"
	"repro/internal/sim"
)

// testHierarchy builds a small two-level hierarchy with round numbers:
// 100MHz CPU (10ns cycle), 8K 2-way L1 at 5ns, 256K 4-way L2 at 50ns,
// memory at 300ns back-to-back / 100ns streaming fill.
func testHierarchy(t *testing.T, mutate func(*Config)) (*Hierarchy, *sim.Clock) {
	t.Helper()
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100, IssueWidth: 4})
	cfg := Config{
		Caches: []CacheConfig{
			{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5, FillNS: 5},
			{Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 4, LatencyNS: 50, FillNS: 40},
		},
		DRAM: DRAMConfig{LatencyNS: 300, FillNS: 100, WritebackNS: 100},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := New(cpu, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, clk
}

func TestNewValidation(t *testing.T) {
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100})
	dram := DRAMConfig{LatencyNS: 100}
	bad := []Config{
		{Caches: []CacheConfig{{Size: 0, LineSize: 32}}, DRAM: dram},
		{Caches: []CacheConfig{{Size: 1024, LineSize: 0}}, DRAM: dram},
		{Caches: []CacheConfig{{Size: 16, LineSize: 32}}, DRAM: dram}, // smaller than a line
		{TLB: TLBConfig{Entries: 8}, DRAM: dram},                      // TLB without page size
	}
	for i, cfg := range bad {
		if _, err := New(cpu, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

// TestNewRefusesDRAMTiming: New refuses a DRAM timing no derivation
// produces, naming the field — a latency that is not positive, a
// negative fill or writeback time, a value that is not finite — and
// accepts the zero fill and writeback times that fall back.
func TestNewRefusesDRAMTiming(t *testing.T) {
	cpu := sim.NewCPU(&sim.Clock{}, sim.CPUConfig{MHz: 100})
	caches := []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 10}}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		dram  DRAMConfig
		field string // "" when New accepts the timing
	}{
		{DRAMConfig{LatencyNS: 300, FillNS: 100, WritebackNS: 120}, ""},
		{DRAMConfig{LatencyNS: 300}, ""},
		{DRAMConfig{LatencyNS: 1e-3, FillNS: 0, WritebackNS: 0}, ""},
		{DRAMConfig{}, "LatencyNS"},
		{DRAMConfig{LatencyNS: -300}, "LatencyNS"},
		{DRAMConfig{LatencyNS: nan}, "LatencyNS"},
		{DRAMConfig{LatencyNS: inf}, "LatencyNS"},
		{DRAMConfig{LatencyNS: 300, FillNS: -1}, "FillNS"},
		{DRAMConfig{LatencyNS: 300, FillNS: nan}, "FillNS"},
		{DRAMConfig{LatencyNS: 300, FillNS: inf}, "FillNS"},
		{DRAMConfig{LatencyNS: 300, FillNS: 100, WritebackNS: -1}, "WritebackNS"},
		{DRAMConfig{LatencyNS: 300, FillNS: 100, WritebackNS: nan}, "WritebackNS"},
		{DRAMConfig{LatencyNS: 300, FillNS: 100, WritebackNS: math.Inf(-1)}, "WritebackNS"},
	} {
		_, err := New(cpu, Config{Caches: caches, DRAM: tc.dram})
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v refused: %v", tc.dram, err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), "dram timing "+tc.field+" ")):
			t.Errorf("%+v: err = %v, want it to name %s", tc.dram, err, tc.field)
		}
	}
}

func TestLoadMissThenHit(t *testing.T) {
	h, clk := testHierarchy(t, nil)
	addr := h.Alloc(4096)

	h.Load(addr)
	// Miss everywhere: 10ns load instruction + 300ns memory.
	if got := clk.Now(); got != 310*ptime.Nanosecond {
		t.Errorf("cold load = %v, want 310ns", got)
	}
	before := clk.Now()
	h.Load(addr)
	// Now in L1: 10 + 5.
	if got := clk.Now() - before; got != 15*ptime.Nanosecond {
		t.Errorf("warm load = %v, want 15ns", got)
	}
	st := h.Stats()
	if st.MemAccesses != 1 || st.Hits[0] != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLoadL2Hit(t *testing.T) {
	h, clk := testHierarchy(t, nil)
	base := h.Alloc(64 << 10)
	// Touch 64K so it lands in L2; then walk again. The first lap's
	// lines no longer fit L1 (8K) but fit L2 (256K).
	for off := int64(0); off < 64<<10; off += 32 {
		h.Load(base + uint64(off))
	}
	h.ResetStats()
	before := clk.Now()
	h.Load(base) // evicted from L1 long ago, still in L2
	if got := clk.Now() - before; got != 60*ptime.Nanosecond {
		t.Errorf("L2 hit = %v, want 60ns (10 cycle + 50 L2)", got)
	}
	if st := h.Stats(); st.Hits[1] != 1 {
		t.Errorf("stats = %+v, want one L2 hit", st)
	}
}

func TestStoreDirtyEvictionReachesMemory(t *testing.T) {
	h, _ := testHierarchy(t, nil)
	// Dirty far more than L2 holds; dirty lines must eventually be
	// written back.
	base := h.Alloc(1 << 20)
	for off := int64(0); off < 1<<20; off += 32 {
		h.Store(base + uint64(off))
	}
	if st := h.Stats(); st.Writebacks == 0 {
		t.Error("no writebacks after dirtying 1MB through a 256K L2")
	}
}

// TestStoreMissPaysVictimWriteback: a store that misses and retires a
// dirty victim pays the writeback, as a load does. Over 1 MB, far past
// the 8 KB first level, every WalkWrite store of a second lap misses to
// memory and retires a line the first lap dirtied: one cycle, the 300 ns
// memory latency and the 100 ns writeback, 410 ns.
func TestStoreMissPaysVictimWriteback(t *testing.T) {
	clk := &sim.Clock{}
	h, err := New(sim.NewCPU(clk, sim.CPUConfig{MHz: 100}), Config{
		Caches: []CacheConfig{{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5}},
		DRAM:   DRAMConfig{LatencyNS: 300, WritebackNS: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := h.NewChase(h.Alloc(1<<20), 1<<20, 64)
	lap := ch.Length()
	ch.WalkWrite(lap)
	start, before := clk.Now(), h.Stats()
	ch.WalkWrite(lap)
	after := h.Stats()
	if got := after.Writebacks - before.Writebacks; got != lap {
		t.Errorf("a lap of %d stores retired %d dirty lines", lap, got)
	}
	if per, want := (clk.Now() - start).DivN(lap), ptime.FromNS(410); per != want {
		t.Errorf("a store that retires a dirty victim costs %v, want %v", per, want)
	}
}

func TestFlushAll(t *testing.T) {
	h, clk := testHierarchy(t, nil)
	addr := h.Alloc(64)
	h.Load(addr)
	h.FlushAll()
	before := clk.Now()
	h.Load(addr)
	if got := clk.Now() - before; got != 310*ptime.Nanosecond {
		t.Errorf("post-flush load = %v, want full miss 310ns", got)
	}
}

func TestAllocAlignedAndDisjoint(t *testing.T) {
	h, _ := testHierarchy(t, nil)
	a := h.Alloc(100)
	b := h.Alloc(100)
	if a%4096 != 0 || b%4096 != 0 {
		t.Errorf("allocations not page aligned: %x %x", a, b)
	}
	if b < a+100 {
		t.Errorf("allocations overlap: %x %x", a, b)
	}
}

// chaseLatency walks one warm lap then measures the next lap's per-load
// latency in ns, with the load instruction subtracted as the paper does.
func chaseLatency(h *Hierarchy, clk *sim.Clock, base uint64, size, stride int64) float64 {
	ch := h.NewChase(base, size, stride)
	n := ch.Length()
	ch.Walk(n) // warm
	before := clk.Now()
	ch.Walk(n)
	per := (clk.Now() - before).DivN(n) - h.LoadInstTime()
	return per.Nanoseconds()
}

// TestChaseStaircase is the emergent-Figure-1 test: per-load latency
// must step from L1 to L2 to memory as the array outgrows each level.
func TestChaseStaircase(t *testing.T) {
	h, clk := testHierarchy(t, nil)
	base := h.Alloc(4 << 20)

	l1 := chaseLatency(h, clk, base, 4<<10, 32)
	h.FlushAll()
	l2 := chaseLatency(h, clk, base, 64<<10, 32)
	h.FlushAll()
	mem := chaseLatency(h, clk, base, 2<<20, 32)

	if l1 != 5 {
		t.Errorf("L1 plateau = %vns, want 5", l1)
	}
	if l2 != 50 {
		t.Errorf("L2 plateau = %vns, want 50", l2)
	}
	if mem < 290 || mem > 310 {
		t.Errorf("memory plateau = %vns, want ~300", mem)
	}
}

// TestChaseSubLineStride verifies the spatial-locality effect the paper
// uses to derive line size: strides below the line size get multiple
// hits per line, so the average latency drops.
func TestChaseSubLineStride(t *testing.T) {
	h, clk := testHierarchy(t, nil)
	base := h.Alloc(4 << 20)
	full := chaseLatency(h, clk, base, 2<<20, 32)
	h.FlushAll()
	sub := chaseLatency(h, clk, base, 2<<20, 8)
	// Stride 8 on 32-byte lines: 1 miss + 3 L1 hits per line.
	want := (full + 3*5) / 4
	if diff := sub - want; diff > 2 || diff < -2 {
		t.Errorf("sub-line stride latency = %vns, want ~%vns", sub, want)
	}
}

func TestChaseWrapAndLength(t *testing.T) {
	h, _ := testHierarchy(t, nil)
	base := h.Alloc(1024)
	ch := h.NewChase(base, 128, 32)
	if ch.Length() != 4 {
		t.Errorf("Length = %d, want 4", ch.Length())
	}
	ch.Walk(9) // wraps twice and a bit
	if ch.off != 32 {
		t.Errorf("offset after 9 walks = %d, want 32", ch.off)
	}
	// Degenerate strides are clamped.
	ch2 := h.NewChase(base, 0, 0)
	if ch2.Length() != 1 {
		t.Errorf("clamped chase length = %d", ch2.Length())
	}
	ch2.Walk(3)
}

func TestTLBMissCost(t *testing.T) {
	h, clk := testHierarchy(t, func(c *Config) {
		c.TLB = TLBConfig{Entries: 8, PageSize: 4096, MissNS: 200}
	})
	// Stride = page size over many pages: every load is a TLB miss
	// once the working set exceeds 8 entries.
	base := h.Alloc(1 << 20)
	lat := chaseLatency(h, clk, base, 1<<20, 4096)
	// 300 memory + 200 TLB = 500.
	if lat < 490 || lat > 510 {
		t.Errorf("TLB-missing latency = %vns, want ~500", lat)
	}
	if st := h.Stats(); st.TLBMisses == 0 {
		t.Error("expected TLB misses")
	}
	// Small array: all 8 pages fit the TLB; no miss cost after warmup.
	h.FlushAll()
	lat = chaseLatency(h, clk, base, 8*4096, 4096)
	if lat > 310 {
		t.Errorf("TLB-fitting latency = %vns, want <= memory latency", lat)
	}
}

func TestStreamReadMemoryBound(t *testing.T) {
	h, clk := testHierarchy(t, nil)
	base := h.Alloc(1 << 20)
	before := clk.Now()
	h.StreamRead(base, 1<<20)
	elapsed := clk.Now() - before
	// 32768 cold chunks, each max(issue 40ns, fill 100ns) = 100ns.
	want := ptime.Duration(32768) * 100 * ptime.Nanosecond
	if elapsed != want {
		t.Errorf("cold stream read = %v, want %v", elapsed, want)
	}
	// A 4K re-read is L1-resident: issue-bound at 40ns per chunk.
	before = clk.Now()
	h.StreamRead(base+1<<20-4096, 4096)
	h.StreamRead(base+1<<20-4096, 4096)
	warm := (clk.Now() - before) / 2
	if warm > 128*50*ptime.Nanosecond {
		t.Errorf("warm stream read too slow: %v", warm)
	}
}

func TestStreamWriteMovesMoreThanRead(t *testing.T) {
	h, clk := testHierarchy(t, nil)
	base := h.Alloc(1 << 20)
	before := clk.Now()
	h.StreamRead(base, 1<<20)
	readTime := clk.Now() - before

	h2, clk2 := testHierarchy(t, nil)
	base2 := h2.Alloc(1 << 20)
	before = clk2.Now()
	h2.StreamWrite(base2, 1<<20)
	writeTime := clk2.Now() - before

	// Write-allocate: RFO fill + writeback makes writes slower than
	// clean reads over memory-sized regions.
	if writeTime <= readTime {
		t.Errorf("write %v should exceed clean read %v", writeTime, readTime)
	}
	if st := h2.Stats(); st.Writebacks == 0 {
		t.Error("streaming writes over L2 capacity must cause writebacks")
	}
}

func TestStreamCopyHWAssistIsFaster(t *testing.T) {
	run := func(hw bool) ptime.Duration {
		h, clk := testHierarchy(t, func(c *Config) { c.HWCopy = hw })
		src := h.Alloc(1 << 20)
		dst := h.Alloc(1 << 20)
		before := clk.Now()
		h.StreamCopy(src, dst, 1<<20)
		return clk.Now() - before
	}
	plain := run(false)
	assisted := run(true)
	if assisted >= plain {
		t.Errorf("HW-assisted copy %v should beat plain %v", assisted, plain)
	}
	// Plain copy moves ~3 streams vs ~2: expect at least a 20% gap.
	if float64(assisted) > float64(plain)*0.85 {
		t.Errorf("HW copy advantage too small: %v vs %v", assisted, plain)
	}
}

func TestStreamNoWriteAllocate(t *testing.T) {
	h, _ := testHierarchy(t, func(c *Config) { c.NoWriteAllocate = true })
	base := h.Alloc(64 << 10)
	h.StreamWrite(base, 64<<10)
	st := h.Stats()
	if st.Writebacks == 0 {
		t.Error("no-allocate writes should stream to memory")
	}
	// Nothing was filled, so a subsequent load misses.
	h.ResetStats()
	h.Load(base)
	if st := h.Stats(); st.MemAccesses != 1 {
		t.Errorf("load after no-allocate store should miss; stats %+v", st)
	}
}

// TestStreamKernelDoesNotAllocate pins the kernel's per-stream page
// bookkeeping to fixed arrays: a call allocates nothing.
func TestStreamKernelDoesNotAllocate(t *testing.T) {
	h, _ := testHierarchy(t, nil)
	const bytes = 2 << 10
	dst, a, b := h.Alloc(bytes), h.Alloc(bytes), h.Alloc(bytes)
	srcs := []uint64{a, b}
	if n := testing.AllocsPerRun(100, func() { h.StreamKernel(dst, srcs, bytes, 5) }); n != 0 {
		t.Errorf("StreamKernel allocates %v times per call, want 0", n)
	}
}

func TestStreamZeroBytes(t *testing.T) {
	h, clk := testHierarchy(t, nil)
	base := h.Alloc(64)
	h.StreamRead(base, 0)
	h.StreamWrite(base, 0)
	h.StreamCopy(base, base, -5)
	if clk.Now() != 0 {
		t.Errorf("zero-byte streams charged time: %v", clk.Now())
	}
}

func TestStoreHitLowerLevelPromotes(t *testing.T) {
	h, _ := testHierarchy(t, nil)
	base := h.Alloc(64 << 10)
	// Fill 64K: head of region is L2-only afterwards.
	for off := int64(0); off < 64<<10; off += 32 {
		h.Load(base + uint64(off))
	}
	h.ResetStats()
	h.Store(base)
	st := h.Stats()
	if st.Hits[1] != 1 {
		t.Errorf("store should hit L2: %+v", st)
	}
	// And now it is in L1.
	h.Load(base)
	if st := h.Stats(); st.Hits[0] != 1 {
		t.Errorf("store should promote line to L1: %+v", st)
	}
}

// refLRU is an independent reference model of a fully-associative LRU
// cache used to cross-check the production cache.
type refLRU struct {
	cap   int
	order []uint64 // most recent last
}

func (r *refLRU) access(lineAddr uint64) bool {
	for i, t := range r.order {
		if t == lineAddr {
			r.order = append(append(r.order[:i:i], r.order[i+1:]...), t)
			return true
		}
	}
	r.order = append(r.order, lineAddr)
	if len(r.order) > r.cap {
		r.order = r.order[1:]
	}
	return false
}

// Property: the fully-associative cache agrees with the reference LRU on
// every access of a random trace.
func TestQuickLRUMatchesReference(t *testing.T) {
	f := func(seed int64, trace []uint8) bool {
		const lines = 8
		c, err := newCache(CacheConfig{Name: "t", Size: lines * 32, LineSize: 32, Assoc: 0})
		if err != nil {
			return false
		}
		ref := &refLRU{cap: lines}
		rng := rand.New(rand.NewSource(seed))
		for _, b := range trace {
			addr := uint64(b%32)*32 + uint64(rng.Intn(32))
			gotHit := c.lookup(addr, false)
			wantHit := ref.access(addr / 32)
			if gotHit != wantHit {
				return false
			}
			if !gotHit {
				c.insert(addr, false)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: increasing associativity never decreases the hit count on
// the same trace for an LRU cache of fixed size... This is not true in
// general (Belady), but holds for the repeated-scan traces we use here.
func TestAssociativityHelpsOnScans(t *testing.T) {
	hits := func(assoc int) int {
		c, err := newCache(CacheConfig{Name: "t", Size: 4096, LineSize: 32, Assoc: assoc})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		// Two interleaved streams that collide in a direct-mapped cache.
		for lap := 0; lap < 4; lap++ {
			for off := uint64(0); off < 2048; off += 32 {
				for _, base := range []uint64{0, 65536} {
					if c.lookup(base+off, false) {
						n++
					} else {
						c.insert(base+off, false)
					}
				}
			}
		}
		return n
	}
	if h1, h2 := hits(1), hits(2); h2 < h1 {
		t.Errorf("2-way (%d hits) should beat direct-mapped (%d hits) on colliding scans", h2, h1)
	}
}

// Property: chase latency is monotonically non-decreasing in array size
// for a fixed stride (larger arrays can only hit in equal-or-farther
// levels).
func TestQuickChaseMonotoneInSize(t *testing.T) {
	h, clk := testHierarchy(t, nil)
	base := h.Alloc(8 << 20)
	var prev float64 = -1
	for size := int64(2 << 10); size <= 4<<20; size *= 4 {
		h.FlushAll()
		lat := chaseLatency(h, clk, base, size, 64)
		if lat < prev-1 { // 1ns numeric slack
			t.Errorf("latency decreased at size %d: %v after %v", size, lat, prev)
		}
		prev = lat
	}
}

func TestStatsCopySemantics(t *testing.T) {
	h, _ := testHierarchy(t, nil)
	addr := h.Alloc(64)
	h.Load(addr)
	st := h.Stats()
	st.Hits[0] = 999
	if h.Stats().Hits[0] == 999 {
		t.Error("Stats must return a copy")
	}
	h.ResetStats()
	if s := h.Stats(); s.MemAccesses != 0 {
		t.Errorf("ResetStats left %+v", s)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ReadOpsPerWord != 2 || cfg.WriteOpsPerWord != 1 || cfg.CopyOpsPerWord != 2 || cfg.WordSize != 4 {
		t.Errorf("defaults = %+v", cfg)
	}
}
