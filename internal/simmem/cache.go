// Package simmem implements the simulated memory hierarchy: N levels of
// set-associative caches, a TLB, and DRAM, with separate cost models for
// dependent (back-to-back) loads and streaming transfers.
//
// This is the substrate behind the paper's most important benchmark, the
// memory read latency pointer chase (§6.1-6.2, Figure 1, Table 6), and
// behind the bandwidth suite (§5.1, Table 2). The pointer chase issues
// one simulated load per list element through this hierarchy; the
// staircase in Figure 1 emerges from real hits and misses in these
// structures, not from a lookup table. The paper's definition is honored
// precisely: "lmbench measures back-to-back-load latency because it is
// the only measurement that may be easily measured from software and
// because we feel that it is what most software developers consider to
// be memory latency."
package simmem

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/ptime"
	"repro/internal/sim"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	// Name labels the level in stats ("L1", "L2").
	Name string
	// Size is the capacity in bytes.
	Size int64
	// LineSize is the cache line size in bytes.
	LineSize int
	// Assoc is the set associativity; 0 means fully associative.
	Assoc int
	// LatencyNS is the back-to-back dependent-load latency serviced by
	// this level, in nanoseconds, as the paper reports it (Table 6):
	// excluding the one-cycle load instruction itself.
	LatencyNS float64
	// FillNS is the time to stream one line out of this level under
	// pipelined sequential access (bandwidth model). Defaults to
	// LatencyNS when zero. Streaming fills are typically faster than
	// back-to-back loads because successive fills overlap.
	FillNS float64
}

func (c CacheConfig) fill() float64 {
	if c.FillNS > 0 {
		return c.FillNS
	}
	return c.LatencyNS
}

// DRAMConfig describes main memory.
type DRAMConfig struct {
	// LatencyNS is the back-to-back load latency from main memory
	// (e.g. 400ns on the 300MHz DEC 8400 per §6.1).
	LatencyNS float64
	// FillNS is the streaming line-fill time (page-mode bursts make
	// this shorter than LatencyNS). Defaults to LatencyNS.
	FillNS float64
	// WritebackNS is the cost of retiring one dirty line, charged when
	// a dirty line leaves the last cache level during streaming ops.
	// Defaults to FillNS.
	WritebackNS float64
}

func (d DRAMConfig) fill() float64 {
	if d.FillNS > 0 {
		return d.FillNS
	}
	return d.LatencyNS
}

func (d DRAMConfig) writeback() float64 {
	if d.WritebackNS > 0 {
		return d.WritebackNS
	}
	return d.fill()
}

// TLBConfig describes the TLB. Entries == 0 disables TLB modeling.
type TLBConfig struct {
	Entries  int
	PageSize int
	Assoc    int // 0 means fully associative
	// MissNS is the page-table walk cost per TLB miss.
	MissNS float64
}

// Config assembles a hierarchy.
type Config struct {
	Caches []CacheConfig
	DRAM   DRAMConfig
	TLB    TLBConfig
	// ReadOpsPerWord, WriteOpsPerWord and CopyOpsPerWord are the
	// instruction counts per word of the unrolled bandwidth loops
	// (load+add, store+increment, load+store). Defaults 2, 1, 2.
	ReadOpsPerWord  int
	WriteOpsPerWord int
	CopyOpsPerWord  int
	// WordSize is the loop word size in bytes (default 4, "on most
	// (perhaps all) systems measured the integer size is 4 bytes").
	WordSize int
	// HWCopy models bcopy hardware assistance (e.g. SPARC V9 block
	// moves): destination lines are not read before being overwritten,
	// so a copy moves 2x memory rather than 3x.
	HWCopy bool
	// NoWriteAllocate models write-through/no-allocate stores: streaming
	// writes do not fill the destination line at all.
	NoWriteAllocate bool
}

func (c Config) withDefaults() Config {
	if c.ReadOpsPerWord <= 0 {
		c.ReadOpsPerWord = 2
	}
	if c.WriteOpsPerWord <= 0 {
		c.WriteOpsPerWord = 1
	}
	if c.CopyOpsPerWord <= 0 {
		c.CopyOpsPerWord = 2
	}
	if c.WordSize <= 0 {
		c.WordSize = 4
	}
	return c
}

// line is one cache line's bookkeeping.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// fullyAssocMin is the smallest single-set associativity at which the
// cache switches from way scans to the O(1) probe structures (a tag→way
// index plus an intrusive exact-LRU list). Below it a scan over the few
// ways is cheaper than map traffic.
const fullyAssocMin = 8

// cache is one level's state. lines[] is always the ground truth for
// tag/valid/dirty; the two probe modes differ only in how a way is
// found and how recency is ordered:
//
//   - Set-associative mode (nsets > 1, or a single small set): the
//     original linear way scan, accelerated by a per-set MRU way hint —
//     the paper's workloads (pointer chases, streaming loops) re-touch
//     the same line repeatedly, so the hint hits almost always. Recency
//     is the per-line lru tick, exactly as before; the scan path is
//     byte-for-byte the seed algorithm, so victim choice is unchanged.
//
//   - Fully-associative mode (one set with >= fullyAssocMin ways — the
//     TLB on most profiles): a tag→way map finds the line in O(1) and
//     an intrusive doubly-linked list keeps exact LRU order. Because
//     every lru tick in the scan algorithm is unique, "smallest tick"
//     and "tail of a move-to-front list" name the same line, and free
//     ways are observably interchangeable (only the set of resident
//     {tag, dirty, recency-order} matters), so victim choice is
//     preserved bit-for-bit.
type cache struct {
	cfg   CacheConfig
	assoc int
	nsets uint64
	lines []line // sets * assoc, laid out set-major
	tick  uint64

	// mru[s] is the way of set s most recently hit or filled
	// (set-associative mode only).
	mru []uint32

	// Fully-associative mode state.
	full  bool
	idx   map[uint64]int32 // tag -> way
	prevW []int32          // intrusive LRU list: towards MRU
	nextW []int32          // towards LRU
	headW int32            // MRU way, -1 when empty
	tailW int32            // LRU way, -1 when empty
	freeW []int32          // invalid ways, popped from the end

	// Fast-path effectiveness counters (surfaced via Stats).
	mruHits int64
	idxHits int64

	// Power-of-two geometry (the universal case) turns setFor's divide
	// and modulo into a shift and mask — same arithmetic, same result.
	pow2      bool
	lineShift uint32
	setMask   uint64
}

func newCache(cfg CacheConfig) (*cache, error) {
	if cfg.Size <= 0 || cfg.LineSize <= 0 {
		return nil, fmt.Errorf("simmem: cache %q needs positive size and line size", cfg.Name)
	}
	totalLines := cfg.Size / int64(cfg.LineSize)
	if totalLines <= 0 {
		return nil, fmt.Errorf("simmem: cache %q smaller than one line", cfg.Name)
	}
	assoc := cfg.Assoc
	if assoc <= 0 || int64(assoc) > totalLines {
		assoc = int(totalLines) // fully associative
	}
	nsets := totalLines / int64(assoc)
	if nsets <= 0 {
		nsets = 1
	}
	c := &cache{
		cfg:   cfg,
		assoc: assoc,
		nsets: uint64(nsets),
		lines: make([]line, uint64(assoc)*uint64(nsets)),
	}
	if ls, ns := uint64(cfg.LineSize), uint64(nsets); ls&(ls-1) == 0 && ns&(ns-1) == 0 {
		c.pow2 = true
		c.lineShift = uint32(bits.TrailingZeros64(ls))
		c.setMask = ns - 1
	}
	if nsets == 1 && assoc >= fullyAssocMin {
		c.full = true
		c.idx = make(map[uint64]int32, assoc)
		c.prevW = make([]int32, assoc)
		c.nextW = make([]int32, assoc)
		c.headW, c.tailW = -1, -1
		c.freeW = make([]int32, 0, assoc)
		c.resetFree()
	} else {
		c.mru = make([]uint32, nsets)
	}
	return c, nil
}

// resetFree refills the free-way stack so ways are handed out in
// ascending order; with the seed's "last invalid way wins" rule any
// consistent order is observably equivalent, since a way index is never
// visible outside the cache.
func (c *cache) resetFree() {
	c.freeW = c.freeW[:0]
	for i := c.assoc - 1; i >= 0; i-- {
		c.freeW = append(c.freeW, int32(i))
	}
}

func (c *cache) setFor(addr uint64) (uint64, uint64) {
	if c.pow2 {
		lineAddr := addr >> c.lineShift
		return lineAddr & c.setMask, lineAddr
	}
	lineAddr := addr / uint64(c.cfg.LineSize)
	return lineAddr % c.nsets, lineAddr
}

// unlink removes way w from the LRU list.
func (c *cache) unlink(w int32) {
	if c.prevW[w] >= 0 {
		c.nextW[c.prevW[w]] = c.nextW[w]
	} else {
		c.headW = c.nextW[w]
	}
	if c.nextW[w] >= 0 {
		c.prevW[c.nextW[w]] = c.prevW[w]
	} else {
		c.tailW = c.prevW[w]
	}
}

// pushFront makes way w the MRU; w must not be in the list.
func (c *cache) pushFront(w int32) {
	c.prevW[w] = -1
	c.nextW[w] = c.headW
	if c.headW >= 0 {
		c.prevW[c.headW] = w
	}
	c.headW = w
	if c.tailW < 0 {
		c.tailW = w
	}
}

// moveToFront refreshes way w's recency.
func (c *cache) moveToFront(w int32) {
	if c.headW == w {
		return
	}
	c.unlink(w)
	c.pushFront(w)
}

// lookup probes for addr; on hit it refreshes LRU (and optionally marks
// dirty) and returns true.
func (c *cache) lookup(addr uint64, markDirty bool) bool {
	set, tag := c.setFor(addr)
	if c.full {
		// MRU short-circuit: the list head is the most recent touch, so
		// a repeat access (the common case in chases and streams) skips
		// the map and the move-to-front is a no-op.
		if w := c.headW; w >= 0 && c.lines[w].tag == tag {
			c.mruHits++
			if markDirty {
				c.lines[w].dirty = true
			}
			return true
		}
		w, ok := c.idx[tag]
		if !ok {
			return false
		}
		c.idxHits++
		c.moveToFront(w)
		if markDirty {
			c.lines[w].dirty = true
		}
		return true
	}
	if c.assoc == 1 {
		// Direct-mapped: one way to check, no hint or scan needed.
		l := &c.lines[set]
		if l.valid && l.tag == tag {
			c.tick++
			l.lru = c.tick
			if markDirty {
				l.dirty = true
			}
			return true
		}
		return false
	}
	base := set * uint64(c.assoc)
	if l := &c.lines[base+uint64(c.mru[set])]; l.valid && l.tag == tag {
		c.mruHits++
		c.tick++
		l.lru = c.tick
		if markDirty {
			l.dirty = true
		}
		return true
	}
	for i := uint64(0); i < uint64(c.assoc); i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			c.tick++
			l.lru = c.tick
			if markDirty {
				l.dirty = true
			}
			c.mru[set] = uint32(i)
			return true
		}
	}
	return false
}

// rehit does what k lookup(addr, false) calls do when addr's line is
// the most recent entry: the list head in fully-associative mode, its
// set's MRU way otherwise. The hit counters and the recency tick move
// k times and the line keeps the last tick.
func (c *cache) rehit(addr uint64, k int64) {
	if c.full {
		c.mruHits += k
		return
	}
	set, _ := c.setFor(addr)
	if c.assoc > 1 {
		c.mruHits += k
	}
	c.tick += uint64(k)
	c.lines[set*uint64(c.assoc)+uint64(c.mru[set])].lru = c.tick
}

// insert places addr's line, evicting the LRU way if needed. It returns
// the evicted line's address and whether it was valid and dirty.
func (c *cache) insert(addr uint64, dirty bool) (evictedAddr uint64, evictedDirty, evictedValid bool) {
	set, tag := c.setFor(addr)
	if c.full {
		return c.insertFull(tag, dirty)
	}
	if c.assoc == 1 {
		// Direct-mapped: the set's one way is the victim; semantics are
		// the general loop's, shorn of the scan.
		v := &c.lines[set]
		if v.valid && v.tag == tag {
			c.tick++
			v.lru = c.tick
			if dirty {
				v.dirty = true
			}
			return 0, false, false
		}
		if v.valid {
			evictedAddr = v.tag * uint64(c.cfg.LineSize)
			evictedDirty = v.dirty
			evictedValid = true
		}
		c.tick++
		*v = line{tag: tag, valid: true, dirty: dirty, lru: c.tick}
		return evictedAddr, evictedDirty, evictedValid
	}
	base := set * uint64(c.assoc)
	victim := base
	for i := uint64(0); i < uint64(c.assoc); i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			// Already present (refill race); refresh.
			c.tick++
			l.lru = c.tick
			if dirty {
				l.dirty = true
			}
			c.mru[set] = uint32(i)
			return 0, false, false
		}
		if !l.valid {
			victim = base + i
		} else if c.lines[victim].valid && l.lru < c.lines[victim].lru {
			victim = base + i
		}
	}
	v := &c.lines[victim]
	if v.valid {
		evictedAddr = v.tag * uint64(c.cfg.LineSize)
		evictedDirty = v.dirty
		evictedValid = true
	}
	c.tick++
	*v = line{tag: tag, valid: true, dirty: dirty, lru: c.tick}
	c.mru[set] = uint32(victim - base)
	return evictedAddr, evictedDirty, evictedValid
}

// insertFull is insert for the fully-associative mode: the victim is
// a free way when one exists, else the exact-LRU tail — the same line
// the seed's min-tick scan would pick.
func (c *cache) insertFull(tag uint64, dirty bool) (evictedAddr uint64, evictedDirty, evictedValid bool) {
	if w, ok := c.idx[tag]; ok {
		// Already present (refill race); refresh.
		c.moveToFront(w)
		if dirty {
			c.lines[w].dirty = true
		}
		return 0, false, false
	}
	var w int32
	if n := len(c.freeW); n > 0 {
		w = c.freeW[n-1]
		c.freeW = c.freeW[:n-1]
	} else {
		w = c.tailW
		v := &c.lines[w]
		evictedAddr = v.tag * uint64(c.cfg.LineSize)
		evictedDirty = v.dirty
		evictedValid = true
		delete(c.idx, v.tag)
		c.unlink(w)
	}
	c.lines[w] = line{tag: tag, valid: true, dirty: dirty}
	c.idx[tag] = w
	c.pushFront(w)
	return evictedAddr, evictedDirty, evictedValid
}

// invalidate drops addr's line if present, reporting whether it was
// present and dirty (back-invalidation for strict inclusion).
func (c *cache) invalidate(addr uint64) (wasValid, wasDirty bool) {
	set, tag := c.setFor(addr)
	if c.full {
		w, ok := c.idx[tag]
		if !ok {
			return false, false
		}
		wasDirty = c.lines[w].dirty
		delete(c.idx, tag)
		c.unlink(w)
		c.lines[w] = line{}
		c.freeW = append(c.freeW, w)
		return true, wasDirty
	}
	base := set * uint64(c.assoc)
	for i := uint64(0); i < uint64(c.assoc); i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			wasValid, wasDirty = true, l.dirty
			*l = line{}
			return wasValid, wasDirty
		}
	}
	return false, false
}

// writeback marks addr's line dirty if present, without refreshing its
// LRU age (a victim writeback is not a demand use). Reports presence.
func (c *cache) writeback(addr uint64) bool {
	set, tag := c.setFor(addr)
	if c.full {
		w, ok := c.idx[tag]
		if !ok {
			return false
		}
		c.lines[w].dirty = true
		return true
	}
	base := set * uint64(c.assoc)
	for i := uint64(0); i < uint64(c.assoc); i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			l.dirty = true
			return true
		}
	}
	return false
}

func (c *cache) flush() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	if c.full {
		clear(c.idx)
		c.headW, c.tailW = -1, -1
		c.resetFree()
	} else {
		for i := range c.mru {
			c.mru[i] = 0
		}
	}
}

// newTLB builds the TLB: the cache machinery over page-granular
// "lines", or nil when cfg models no TLB.
func newTLB(cfg TLBConfig) (*cache, error) {
	if cfg.Entries == 0 {
		return nil, nil
	}
	if cfg.PageSize <= 0 {
		return nil, fmt.Errorf("simmem: TLB needs a page size")
	}
	return newCache(CacheConfig{
		Name:     "TLB",
		Size:     int64(cfg.Entries) * int64(cfg.PageSize),
		LineSize: cfg.PageSize,
		Assoc:    cfg.Assoc,
	})
}

// Stats counts hierarchy activity for tests and ablations.
type Stats struct {
	// Hits[i] counts accesses serviced by cache level i.
	Hits []int64
	// MemAccesses counts accesses serviced by DRAM.
	MemAccesses int64
	// TLBMisses counts TLB misses.
	TLBMisses int64
	// Writebacks counts dirty lines retired to DRAM.
	Writebacks int64
	// MRUHits counts probes answered by a set's MRU-way hint without
	// scanning (set-associative levels) — fast-path effectiveness, not a
	// cost-model quantity.
	MRUHits int64
	// IndexHits counts probes answered by the tag→way index of a
	// fully-associative level or the TLB.
	IndexHits int64
	// PassesSkipped counts passes (whole stream calls, chase laps,
	// read() loops) charged from a proven steady state instead of being
	// simulated — like MRUHits, a fast-path counter, not a cost-model
	// quantity. The other counters include the skipped passes' shares.
	PassesSkipped int64
}

// Hierarchy is the assembled memory system. All methods charge
// simulated time to the CPU's clock.
type Hierarchy struct {
	cpu      *sim.CPU
	clk      *sim.Clock
	cfg      Config
	caches   []*cache
	tlb      *cache
	all      []*cache // every cache level, then the TLB's
	heap     uint64
	pagePool map[uint64]bool
	stats    Stats

	// Precomputed costs, indexed by the level that serves a reference,
	// memory last (see level).
	latency  []ptime.Duration // back-to-back
	fill     []ptime.Duration // streaming; 0 for a first-level hit
	memWB    ptime.Duration
	tlbMiss  ptime.Duration
	loadInst ptime.Duration // one cycle for the load itself

	// Precomputed streaming-loop quantities (the chunk geometry is fixed
	// at construction, so the per-chunk instruction issue times are too).
	chunk      int64
	chunkWords int64
	readIssue  ptime.Duration
	writeIssue ptime.Duration
	copyIssue  ptime.Duration

	// tlbHoistStreams is the largest number of interleaved sequential
	// streams for which probing the TLB once per page is provably
	// identical to probing once per chunk; see hoistStreams.
	tlbHoistStreams int

	// Steady-state pass skipping (memo.go). epoch is bumped by every
	// state change outside a memoized pass; lines (every cache level's
	// and the TLB's line count) is the work a pass must reach before
	// its state is digested, and the probes before its first mark.
	// noMemo turns skipping off, for the in-package equivalence tests
	// and the per-access benchmarks.
	epoch  uint64
	memo   passMemo
	lines  int64
	noMemo bool

	// lineMask is the first-level line size minus one when that size is
	// a power of two that divides the page, so that no line straddles a
	// page; zero otherwise.
	lineMask uint64

	// pageMask is the page size minus one when that size is a power of
	// two, which spares pageOff a division; zero otherwise.
	pageMask uint64
}

// New assembles a Hierarchy charging time through cpu.
func New(cpu *sim.CPU, cfg Config) (*Hierarchy, error) {
	cfg = cfg.withDefaults()
	h := &Hierarchy{
		cpu:      cpu,
		clk:      cpu.Clock(),
		cfg:      cfg,
		memWB:    ptime.FromNS(cfg.DRAM.writeback()),
		tlbMiss:  ptime.FromNS(cfg.TLB.MissNS),
		loadInst: cpu.CycleTime(),
		heap:     1 << 20, // leave page zero and change unmapped
	}
	for i, cc := range cfg.Caches {
		c, err := newCache(cc)
		if err != nil {
			return nil, err
		}
		h.caches = append(h.caches, c)
		h.latency = append(h.latency, ptime.FromNS(cc.LatencyNS))
		var fill ptime.Duration
		if i > 0 { // a streaming first-level hit moves no line
			fill = ptime.FromNS(cc.fill())
		}
		h.fill = append(h.fill, fill)
	}
	h.latency = append(h.latency, ptime.FromNS(cfg.DRAM.LatencyNS))
	h.fill = append(h.fill, ptime.FromNS(cfg.DRAM.fill()))
	t, err := newTLB(cfg.TLB)
	if err != nil {
		return nil, err
	}
	h.tlb = t
	h.all = slices.Clip(h.caches)
	if t != nil {
		h.all = append(h.all, t)
	}
	for _, c := range h.all {
		h.lines += int64(len(c.lines))
	}
	h.stats.Hits = make([]int64, len(h.caches))
	h.chunk = h.chunkSize()
	h.chunkWords = h.chunk / int64(cfg.WordSize)
	if h.chunkWords < 1 {
		h.chunkWords = 1
	}
	h.readIssue = cpu.OpTime(h.chunkWords * int64(cfg.ReadOpsPerWord))
	h.writeIssue = cpu.OpTime(h.chunkWords * int64(cfg.WriteOpsPerWord))
	h.copyIssue = cpu.OpTime(h.chunkWords * int64(cfg.CopyOpsPerWord))
	h.tlbHoistStreams = h.hoistStreams()
	if ps := uint64(h.PageSize()); ps&(ps-1) == 0 {
		h.pageMask = ps - 1
	}
	if len(h.caches) > 0 {
		ls := int64(cfg.Caches[0].LineSize)
		if ls&(ls-1) == 0 && (h.tlb == nil || h.PageSize()%ls == 0) {
			h.lineMask = uint64(ls - 1)
		}
	}
	return h, nil
}

// hoistStreams bounds how many sequential streams may share the
// once-per-page TLB-probe optimization. Within one page run a stream's
// entry must be guaranteed to survive the other streams' probes, so
// that every probe the optimization skips would have been a pure
// LRU-refreshing hit. Streams advance one chunk per iteration, so while
// stream s stays on one page each other stream touches at most two
// distinct pages (its own page boundary may cross once):
//
//   - set-associative TLB with nsets >= 2: two consecutive pages land
//     in different sets, so at most one page per other stream shares
//     s's set — n streams co-reside when assoc >= n;
//   - single-set TLB (fully associative or degenerate): all pages
//     compete, so 2(n-1)+1 entries must fit — n <= (ways+1)/2.
//
// Without a TLB every probe is free and the bound is moot.
func (h *Hierarchy) hoistStreams() int {
	if h.tlb == nil {
		return 1 << 30
	}
	c := h.tlb
	if c.nsets == 1 {
		return (c.assoc + 1) / 2
	}
	return c.assoc
}

// Config returns the (defaulted) configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// ClockHandle returns the clock this hierarchy charges time to.
func (h *Hierarchy) ClockHandle() *sim.Clock { return h.clk }

// PageSize returns the machine's page size (the TLB's, or 4K without a
// TLB model).
func (h *Hierarchy) PageSize() int64 {
	if h.tlb != nil {
		return int64(h.cfg.TLB.PageSize)
	}
	return 4096
}

// pageOff returns addr's offset in its page.
func (h *Hierarchy) pageOff(addr uint64) uint64 {
	if h.pageMask != 0 {
		return addr & h.pageMask
	}
	return addr % uint64(h.PageSize())
}

// CPU returns the processor model this hierarchy charges issue time to.
func (h *Hierarchy) CPU() *sim.CPU { return h.cpu }

// Stats returns a copy of the accumulated counters. The fast-path
// counters (MRUHits, IndexHits) are aggregated across every cache level
// and the TLB at call time, on top of the skipped passes' shares.
func (h *Hierarchy) Stats() Stats {
	s := Stats{Hits: make([]int64, len(h.caches))}
	s.add(&h.stats, 1)
	for _, c := range h.all {
		s.MRUHits += c.mruHits
		s.IndexHits += c.idxHits
	}
	return s
}

// add adds n times o's counters to s, whose Hits has o's length.
func (s *Stats) add(o *Stats, n int64) {
	for i, v := range o.Hits {
		s.Hits[i] += n * v
	}
	s.MemAccesses += n * o.MemAccesses
	s.TLBMisses += n * o.TLBMisses
	s.Writebacks += n * o.Writebacks
	s.MRUHits += n * o.MRUHits
	s.IndexHits += n * o.IndexHits
	s.PassesSkipped += n * o.PassesSkipped
}

// ResetStats zeroes the counters.
func (h *Hierarchy) ResetStats() {
	h.stats = Stats{Hits: make([]int64, len(h.caches))}
	for _, c := range h.all {
		c.mruHits, c.idxHits = 0, 0
	}
}

// Alloc reserves size bytes of simulated physical memory and returns the
// base address, page-aligned (or 4K-aligned without a TLB). Successive
// allocations are separated by one guard page so that two large regions
// never alias to the same sets of a direct-mapped cache — the paper
// "took care to ensure that the source and destination locations would
// not map to the same lines if any of the caches were direct-mapped."
func (h *Hierarchy) Alloc(size int64) uint64 {
	align := uint64(4096)
	if h.tlb != nil {
		align = uint64(h.cfg.TLB.PageSize)
	}
	base := (h.heap + align - 1) / align * align
	h.heap = base + uint64(size) + align // guard page de-aliases streams
	return base
}

// AllocPages reserves n pages of the given size at pseudo-random
// physical addresses, modeling how an OS hands out whatever pages are
// free. The paper blames exactly this for context-switch variability:
// "We suspect that the operating system is not using the same set of
// physical pages each time a process is created and we are seeing the
// effects of collisions in the external caches." Randomly placed pages
// collide in set-associative caches even when the nominal working set
// fits.
func (h *Hierarchy) AllocPages(n int, pageSize int64, rng *rand.Rand) []uint64 {
	if n <= 0 || pageSize <= 0 {
		return nil
	}
	// Draw pages from a physical span well above the bump heap; track
	// them so pages are never handed out twice.
	const span = int64(1) << 30
	if h.pagePool == nil {
		h.pagePool = make(map[uint64]bool)
	}
	pages := make([]uint64, 0, n)
	for len(pages) < n {
		page := uint64(1)<<31 + uint64(rng.Int63n(span/pageSize))*uint64(pageSize)
		if h.pagePool[page] {
			continue
		}
		h.pagePool[page] = true
		pages = append(pages, page)
	}
	return pages
}

// StreamReadPages runs the streaming read-and-sum loop over a list of
// pages (a scattered working set).
func (h *Hierarchy) StreamReadPages(pages []uint64, pageSize int64) {
	for _, p := range pages {
		h.StreamRead(p, pageSize)
	}
}

// Mark returns the current bump-heap position. A machine builder takes
// a mark once its fixed allocations (kernel buffers, sockets) are in
// place, and later rewinds to it with Reset.
func (h *Hierarchy) Mark() uint64 { return h.heap }

// Reset rewinds the hierarchy to the state it had when the heap stood
// at mark: the bump heap rewinds (so the next experiment's buffers land
// at the same simulated physical addresses, hence the same cache sets),
// the random-page pool empties, and every cache level and the TLB flush
// cold. Allocations made before mark stay valid. Accumulated stats are
// left alone — they count, they do not cost.
func (h *Hierarchy) Reset(mark uint64) {
	h.heap = mark
	h.pagePool = nil
	h.FlushAll()
}

// FlushAll empties every cache level and the TLB, simulating a cold
// start.
func (h *Hierarchy) FlushAll() {
	h.epoch++
	for _, c := range h.all {
		c.flush()
	}
}

// checkTLB charges a page-table walk on TLB miss and returns the cost.
func (h *Hierarchy) tlbAccess(addr uint64) ptime.Duration {
	if h.tlb == nil {
		return 0
	}
	if h.tlb.lookup(addr, false) {
		return 0
	}
	h.stats.TLBMisses++
	h.tlb.insert(addr, false)
	return h.tlbMiss
}

// fillUpper is fetch past a first-level hit: it counts the reference
// served by level lvl and inserts addr's line into every level above
// it, propagating dirty evictions downward. Evictions that fall out of
// the last level dirty are counted and their cost returned.
func (h *Hierarchy) fillUpper(addr uint64, lvl int, dirty bool) ptime.Duration {
	if lvl == len(h.caches) {
		h.stats.MemAccesses++
	} else {
		h.stats.Hits[lvl]++
	}
	var wb ptime.Duration
	for i := lvl - 1; i >= 0; i-- {
		evAddr, evDirty, evValid := h.caches[i].insert(addr, dirty && i == 0)
		if !evValid {
			continue
		}
		// Strict inclusion: evicting a line from level i back-
		// invalidates its fragments in the levels above; any dirty
		// fragment makes the victim dirty.
		lineSz := uint64(h.caches[i].cfg.LineSize)
		for j := i - 1; j >= 0; j-- {
			upSz := uint64(h.caches[j].cfg.LineSize)
			if upSz > lineSz {
				upSz = lineSz
			}
			for a := evAddr; a < evAddr+lineSz; a += upSz {
				if v, d := h.caches[j].invalidate(a); v && d {
					evDirty = true
				}
			}
		}
		if !evDirty {
			continue
		}
		// A dirty victim's writeback updates the next level's copy in
		// place when present (no time charged: write buffers hide it);
		// it never allocates a new line. With no holder below, it
		// retires to memory.
		absorbed := false
		for j := i + 1; j < len(h.caches); j++ {
			if h.caches[j].writeback(evAddr) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			h.stats.Writebacks++
			wb += h.memWB
		}
	}
	return wb
}

// level returns the index of the first level holding addr, marking
// the line dirty when it is a first-level hit and markDirty is set, or
// len(h.caches) for memory: the index of the level's costs in latency
// and fill.
func (h *Hierarchy) level(addr uint64, markDirty bool) int {
	for i, c := range h.caches {
		if c.lookup(addr, markDirty) {
			return i
		}
		markDirty = false
	}
	return len(h.caches)
}

// fetch is the hit-and-fill step of one reference served by level lvl
// (see level): it counts the reference there and fills addr's line into
// every level above, dirty in the first when dirty is set. It returns
// the writeback time of the dirty victims the fill retired to memory.
// Under strict inclusion, with no level's lines larger than the next
// level's (true of every profile), only a fill from memory retires one
// (a victim of level i is still held by level i+1, which absorbs its
// writeback), so the time is charged wherever the line came from: the §7
// "dirty-read latency" effect ("the cache lines being replaced are
// highly likely to be unmodified, so there is no associated write-back
// cost" — unless the workload dirtied them). A first-level hit, which
// fills nothing, is counted here and the rest in fillUpper, so that
// fetch stays small enough to inline into the hot loops; without
// caches (h.caches is nil) level 0 is memory.
func (h *Hierarchy) fetch(addr uint64, lvl int, dirty bool) (wb ptime.Duration) {
	if lvl > 0 || h.caches == nil {
		return h.fillUpper(addr, lvl, dirty)
	}
	h.stats.Hits[0]++
	return
}

// refCost computes the cost of one back-to-back dependent load, or of
// one write-allocate store when write is set, without touching the
// clock, so hot loops (Chase.Walk) can sum many references and advance
// once. The virtual clock is an exact integer picosecond count, so the
// batched sum equals the per-reference sequence bit-for-bit.
func (h *Hierarchy) refCost(addr uint64, write bool) ptime.Duration {
	lvl := h.level(addr, write)
	return h.loadInst + h.tlbAccess(addr) + h.latency[lvl] + h.fetch(addr, lvl, write)
}

// sameLine counts the addresses addr+stride, addr+2*stride, ... below
// end that fall in addr's first-level line and TLB page. A run is
// shorter than a line, so counting it costs less than dividing by the
// stride, and lineMask spares the usual geometry the other divisions:
// profiled on Table 6, three 64-bit divisions here took 6–9% of it.
func (h *Hierarchy) sameLine(addr, stride, end uint64) int64 {
	if m := h.lineMask; m != 0 {
		end = min(end, addr|m+1)
	} else {
		ls := uint64(h.caches[0].cfg.LineSize)
		end = min(end, (addr/ls+1)*ls)
		if h.tlb != nil {
			ps := uint64(h.cfg.TLB.PageSize)
			end = min(end, (addr/ps+1)*ps)
		}
	}
	var k int64
	for a := addr + stride; a < end; a += stride {
		k++
	}
	return k
}

// rehitL1 charges k dependent loads in addr's first-level line and TLB
// page, made right after the load refCost(addr, false) charged, and
// returns their cost. That load left addr's page the TLB's most recent
// entry and addr's line the first level's, so each of the k loads is a
// first-level hit on the most recent entry of both (DESIGN.md §6f).
func (h *Hierarchy) rehitL1(addr uint64, k int64) ptime.Duration {
	if k <= 0 {
		return 0
	}
	if h.tlb != nil {
		h.tlb.rehit(addr, k)
	}
	h.caches[0].rehit(addr, k)
	h.stats.Hits[0] += k
	return (h.loadInst + h.latency[0]).Mul(k)
}

// Load performs one back-to-back dependent load. It charges the
// servicing level's latency plus one cycle for the load instruction
// (the paper's reported latencies exclude that cycle; see LoadReportNS).
func (h *Hierarchy) Load(addr uint64) {
	h.epoch++
	h.clk.Advance(h.refCost(addr, false))
}

// LoadInstTime returns the one-cycle load-instruction overhead that the
// paper subtracts when reporting latency ("The time reported is pure
// latency time ... It is assumed that all processors can do a load
// instruction in one processor cycle").
func (h *Hierarchy) LoadInstTime() ptime.Duration { return h.loadInst }

// Store performs one store with write-allocate semantics.
func (h *Hierarchy) Store(addr uint64) {
	h.epoch++
	h.clk.Advance(h.refCost(addr, true))
}
