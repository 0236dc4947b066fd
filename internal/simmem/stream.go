package simmem

import (
	"errors"

	"repro/internal/ptime"
)

// The streaming and pointer-chase loops below are the simulator's hot
// paths: one call walks megabytes of simulated memory. They are written
// around two exact-equivalence optimizations (see DESIGN.md
// "Performance engineering"):
//
//   - Batched clock charging: per-access costs accumulate in a local
//     ptime.Duration and the clock advances once per call. The virtual
//     clock is an exact integer picosecond counter and no code observes
//     it mid-call, so the batched sum is bit-identical to per-access
//     advances.
//
//   - Page-granular TLB probing: a sequential stream re-probes the same
//     TLB entry for every chunk of a page. Immediately re-probing the
//     most recently touched entry is a guaranteed hit whose LRU
//     move-to-front is a no-op, so all but the first probe per page are
//     skipped. With several interleaved streams the skip is applied
//     only when Hierarchy.tlbHoistStreams proves no stream's entry can
//     be evicted mid-page (otherwise every chunk probes, as before).
//
//   - Steady-state pass skipping (memo.go): each exported stream call,
//     the read() loop and each whole chase lap is a pass; a repeat that
//     provably leaves the cache/TLB state where it found it is charged
//     from the memo from then on instead of being simulated again.

// chunkSize returns the streaming granularity: the first-level line
// size, or one 64-byte pseudo-line when no caches are configured.
func (h *Hierarchy) chunkSize() int64 {
	if len(h.caches) > 0 {
		return int64(h.caches[0].cfg.LineSize)
	}
	return 64
}

// sideReadCost charges the cache-side work of streaming one chunk's
// read, excluding the TLB probe and the issue/fill overlap; memTime is
// the line-fill component the caller folds into maxDur(issue, ...).
func (h *Hierarchy) sideReadCost(addr uint64) (cost, memTime ptime.Duration) {
	lvl := h.level(addr, false)
	switch {
	case lvl == 0:
		h.stats.Hits[0]++
	case lvl > 0:
		h.stats.Hits[lvl]++
		memTime = h.fill[lvl]
		cost = h.fillUpper(addr, lvl-1, false)
	default:
		h.stats.MemAccesses++
		memTime = h.memFill
		cost = h.fillUpper(addr, len(h.caches)-1, false)
	}
	return cost, memTime
}

// sideWriteCost is sideReadCost for a write-allocate store stream.
func (h *Hierarchy) sideWriteCost(addr uint64) (cost, memTime ptime.Duration) {
	lvl := h.level(addr, true)
	switch {
	case lvl == 0:
		h.stats.Hits[0]++
	case lvl > 0:
		h.stats.Hits[lvl]++
		memTime = h.fill[lvl]
		cost = h.fillUpper(addr, lvl-1, true)
	default:
		// Read-for-ownership fill from memory.
		h.stats.MemAccesses++
		memTime = h.memFill
		cost = h.fillUpper(addr, len(h.caches)-1, true)
	}
	return cost, memTime
}

// StreamRead models the unrolled read-and-sum loop over [addr,
// addr+bytes): sequential word loads with enough independent work that
// fills pipeline. Per chunk the cost is the larger of the instruction
// issue time and the line fill time (loads and fills overlap under
// sequential access), unlike Load which charges the full dependent-load
// latency.
func (h *Hierarchy) StreamRead(addr uint64, bytes int64) {
	if bytes <= 0 {
		return
	}
	if h.short(bytes) {
		h.clk.Advance(h.streamRead(addr, bytes))
		return
	}
	k := passKey{op: opRead, arg: [6]uint64{addr, uint64(bytes)}}
	h.clk.Advance(h.pass(k, true, func() ptime.Duration { return h.streamRead(addr, bytes) }))
}

// streamRead simulates StreamRead and returns its cost.
func (h *Hierarchy) streamRead(addr uint64, bytes int64) ptime.Duration {
	end := addr + uint64(bytes)
	page := uint64(h.PageSize())
	var total ptime.Duration
	lastPage, havePage := uint64(0), false
	for a := addr; a < end; a += uint64(h.chunk) {
		// Single stream: the previous probe of this page is necessarily
		// the TLB's most recent touch, so the skip is unconditional.
		if p := a / page; !havePage || p != lastPage {
			total += h.tlbAccess(a)
			lastPage, havePage = p, true
		}
		cost, memTime := h.sideReadCost(a)
		total += cost + maxDur(h.readIssue, memTime)
	}
	return total
}

// StreamWrite models the unrolled store loop over [addr, addr+bytes).
// With write-allocate caches every missing destination line is read
// before it is written (the paper: "the written cache line will
// typically be read before it is written"), so a pure write moves twice
// the reported bytes. NoWriteAllocate skips the fill and streams stores
// to memory.
func (h *Hierarchy) StreamWrite(addr uint64, bytes int64) {
	if bytes <= 0 {
		return
	}
	if h.short(bytes) {
		h.clk.Advance(h.streamWrite(addr, bytes))
		return
	}
	k := passKey{op: opWrite, arg: [6]uint64{addr, uint64(bytes)}}
	h.clk.Advance(h.pass(k, true, func() ptime.Duration { return h.streamWrite(addr, bytes) }))
}

// streamWrite simulates StreamWrite and returns its cost.
func (h *Hierarchy) streamWrite(addr uint64, bytes int64) ptime.Duration {
	end := addr + uint64(bytes)
	page := uint64(h.PageSize())
	bypass := h.cfg.NoWriteAllocate
	var total ptime.Duration
	lastPage, havePage := uint64(0), false
	for a := addr; a < end; a += uint64(h.chunk) {
		if p := a / page; !havePage || p != lastPage {
			total += h.tlbAccess(a)
			lastPage, havePage = p, true
		}
		var memTime ptime.Duration
		if bypass {
			// Stores stream past the caches straight to memory.
			h.stats.MemAccesses++
			h.stats.Writebacks++
			memTime = h.memWB
		} else {
			var cost ptime.Duration
			cost, memTime = h.sideWriteCost(a)
			total += cost
		}
		total += maxDur(h.writeIssue, memTime)
	}
	return total
}

// StreamPrice is a read or write stream's simulated duration split by
// what DRAM timing reaches:
//
//	Fixed + Fills·max(Issue, fill) + Writebacks·writeback
//
// where fill and writeback are a DRAMConfig's streaming fill and
// writeback times in whole picoseconds. Which chunks a stream fills
// from DRAM and which dirty lines it retires depend on addresses, never
// on timing, so one simulation prices the same stream on the same
// caches under every DRAM timing, bit for bit (DESIGN.md §6e).
type StreamPrice struct {
	// Fixed is every term DRAM timing does not reach: TLB walks,
	// fills from lower cache levels, the issue time of chunks that hit.
	Fixed ptime.Duration
	// Fills counts chunks filled from DRAM; each costs the larger of
	// Issue and the DRAM fill, since the two overlap.
	Fills int64
	// Issue is the stream loop's instruction issue time per chunk.
	Issue ptime.Duration
	// Writebacks counts dirty lines the stream retired to DRAM.
	Writebacks int64
}

// At returns the stream's duration under dram.
func (p StreamPrice) At(dram DRAMConfig) ptime.Duration {
	return p.Fixed + maxDur(p.Issue, ptime.FromNS(dram.fill())).Mul(p.Fills) +
		ptime.FromNS(dram.writeback()).Mul(p.Writebacks)
}

// PriceStream simulates StreamRead over [addr, addr+bytes), or
// StreamWrite when write is set, charging the clock and moving the
// cache state as that call would, and returns the call's duration as a
// StreamPrice. It refuses a hierarchy with NoWriteAllocate or HWCopy:
// their bypassing stores charge a DRAM writeback inside the issue
// overlap, which the split cannot express.
func (h *Hierarchy) PriceStream(addr uint64, bytes int64, write bool) (StreamPrice, error) {
	if h.cfg.NoWriteAllocate || h.cfg.HWCopy {
		return StreamPrice{}, errors.New("simmem: streams with bypassing stores have no DRAM price")
	}
	p := StreamPrice{Issue: h.readIssue}
	if write {
		p.Issue = h.writeIssue
	}
	if bytes <= 0 {
		return p, nil
	}
	h.epoch++ // simulated outside a memoized pass
	fills, wbs := h.stats.MemAccesses, h.stats.Writebacks
	var d ptime.Duration
	if write {
		d = h.streamWrite(addr, bytes)
	} else {
		d = h.streamRead(addr, bytes)
	}
	h.clk.Advance(d)
	p.Fills = h.stats.MemAccesses - fills
	p.Writebacks = h.stats.Writebacks - wbs
	p.Fixed = d - maxDur(p.Issue, h.memFill).Mul(p.Fills) - h.memWB.Mul(p.Writebacks)
	return p, nil
}

// StreamCopy models bcopy: read the source, write the destination.
// Without hardware assistance a copy moves three memory streams (source
// read, destination read-for-ownership, destination writeback); with
// Config.HWCopy the destination stores bypass the cache (SPARC V9-style
// block moves) and only two streams move.
func (h *Hierarchy) StreamCopy(src, dst uint64, bytes int64) {
	h.StreamCopyMode(src, dst, bytes, h.cfg.HWCopy)
}

// StreamCopyMode is StreamCopy with an explicit hardware-assist choice,
// so a backend can model a hardware-assisted libc bcopy next to a
// plain hand-unrolled copy loop on the same machine (the Sun libc case
// in Table 2).
func (h *Hierarchy) StreamCopyMode(src, dst uint64, bytes int64, hwCopy bool) {
	if bytes <= 0 {
		return
	}
	if h.short(2 * bytes) {
		h.clk.Advance(h.streamCopy(src, dst, bytes, hwCopy))
		return
	}
	hw := uint64(0)
	if hwCopy {
		hw = 1
	}
	k := passKey{op: opCopy, arg: [6]uint64{src, dst, uint64(bytes), hw}}
	h.clk.Advance(h.pass(k, true, func() ptime.Duration { return h.streamCopy(src, dst, bytes, hwCopy) }))
}

// streamCopy simulates StreamCopyMode and returns its cost.
func (h *Hierarchy) streamCopy(src, dst uint64, bytes int64, hwCopy bool) ptime.Duration {
	page := uint64(h.PageSize())
	hoist := h.tlbHoistStreams >= 2
	var total ptime.Duration
	var lastSP, lastDP uint64
	haveSP, haveDP := false, false
	for off := int64(0); off < bytes; off += h.chunk {
		sa := src + uint64(off)
		da := dst + uint64(off)

		// Source side: same as a streaming read but with the copy
		// loop's instruction mix charged once for the pair below.
		var cost ptime.Duration
		if p := sa / page; !hoist || !haveSP || p != lastSP {
			cost += h.tlbAccess(sa)
			lastSP, haveSP = p, true
		}
		c, memTime := h.sideReadCost(sa)
		cost += c

		// Destination side.
		if p := da / page; !hoist || !haveDP || p != lastDP {
			cost += h.tlbAccess(da)
			lastDP, haveDP = p, true
		}
		if hwCopy {
			h.stats.MemAccesses++
			h.stats.Writebacks++
			memTime += h.memWB
		} else {
			dc, dmem := h.sideWriteCost(da)
			cost += dc
			memTime += dmem
		}

		total += cost + maxDur(h.copyIssue, memTime)
	}
	return total
}

// ReadLoop models read(2) of n bytes from the kernel buffer at src into
// the user buffer at dst, in calls of at most call bytes: per call, the
// syscall overhead perCall, a bcopy of the call's bytes into dst (with
// the machine's HWCopy mode), then the user's streaming sum of dst
// ("Each buffer is summed as a series of integers in the user
// process"). The whole loop is one pass whose key carries perCall.
func (h *Hierarchy) ReadLoop(src, dst uint64, n, call int64, perCall ptime.Duration) {
	if n <= 0 {
		return
	}
	if call <= 0 {
		call = n
	}
	loop := func() ptime.Duration {
		var total ptime.Duration
		for p := int64(0); p < n; p += call {
			c := min(call, n-p)
			if perCall > 0 { // the clock ignores non-positive charges
				total += perCall
			}
			total += h.streamCopy(src+uint64(p), dst, c, h.cfg.HWCopy)
			total += h.streamRead(dst, c)
		}
		return total
	}
	if h.short(3 * n) {
		h.clk.Advance(loop())
		return
	}
	k := passKey{op: opReadLoop, arg: [6]uint64{src, dst, uint64(n), uint64(call), uint64(perCall)}}
	h.clk.Advance(h.pass(k, true, loop))
}

// maxKernelSrcs is the most source streams a STREAM kernel reads (Add
// and Triad read two).
const maxKernelSrcs = 2

// StreamKernel models one pass of a McCalpin STREAM kernel (§7: "We
// will probably incorporate part or all of this benchmark into
// lmbench"): every source stream is read, the destination stream is
// written with write-allocate semantics, and opsPerWord arithmetic
// operations issue per destination word. Copy has one source and 0
// extra ops, Scale one source and a multiply, Add two sources and an
// add, Triad two sources and a fused multiply-add. At most two sources
// are accepted.
func (h *Hierarchy) StreamKernel(dst uint64, srcs []uint64, bytes int64, opsPerWord int) {
	if len(srcs) > maxKernelSrcs {
		panic("simmem: StreamKernel reads at most two source streams")
	}
	if bytes <= 0 {
		return
	}
	if opsPerWord < 1 {
		opsPerWord = 1
	}
	if h.short(int64(len(srcs)+1) * bytes) {
		h.clk.Advance(h.streamKernel(dst, srcs, bytes, opsPerWord))
		return
	}
	k := passKey{op: opKernel, arg: [6]uint64{dst, uint64(len(srcs)), 0, 0, uint64(bytes), uint64(opsPerWord)}}
	copy(k.arg[2:], srcs)
	h.clk.Advance(h.pass(k, true, func() ptime.Duration { return h.streamKernel(dst, srcs, bytes, opsPerWord) }))
}

// streamKernel simulates StreamKernel and returns its cost.
func (h *Hierarchy) streamKernel(dst uint64, srcs []uint64, bytes int64, opsPerWord int) ptime.Duration {
	issue := h.cpu.OpTime(h.chunkWords * int64(opsPerWord))
	page := uint64(h.PageSize())
	hoist := h.tlbHoistStreams >= len(srcs)+1
	var lastPage [maxKernelSrcs + 1]uint64
	var havePage [maxKernelSrcs + 1]bool
	var total ptime.Duration
	for off := int64(0); off < bytes; off += h.chunk {
		var cost, memTime ptime.Duration
		for i, src := range srcs {
			sa := src + uint64(off)
			if p := sa / page; !hoist || !havePage[i] || p != lastPage[i] {
				cost += h.tlbAccess(sa)
				lastPage[i], havePage[i] = p, true
			}
			c, mem := h.sideReadCost(sa)
			cost += c
			memTime += mem
		}
		da := dst + uint64(off)
		di := len(srcs)
		if p := da / page; !hoist || !havePage[di] || p != lastPage[di] {
			cost += h.tlbAccess(da)
			lastPage[di], havePage[di] = p, true
		}
		dc, dmem := h.sideWriteCost(da)
		cost += dc
		memTime += dmem
		total += cost + maxDur(issue, memTime)
	}
	return total
}

func maxDur(a, b ptime.Duration) ptime.Duration {
	if a > b {
		return a
	}
	return b
}

// Chase is the §6.2 pointer-chase state: a circular list of addresses
// base, base+stride, ... below base+size, whose last element points back
// to the first, walked with dependent loads.
//
//	mov r4,(r4)   # C code: p = *p;
type Chase struct {
	h      *Hierarchy
	base   uint64
	size   int64
	stride int64
	off    int64
}

// NewChase prepares a pointer chase over [base, base+size) with the
// given stride. Stride and size are clamped to at least one word.
func (h *Hierarchy) NewChase(base uint64, size, stride int64) *Chase {
	if stride < int64(h.cfg.WordSize) {
		stride = int64(h.cfg.WordSize)
	}
	if size < stride {
		size = stride
	}
	return &Chase{h: h, base: base, size: size, stride: stride}
}

// Walk performs n dependent loads, continuing from where the previous
// call stopped (the list wraps). The per-load costs accumulate locally
// and charge the clock once.
func (c *Chase) Walk(n int64) { c.walk(opWalk, n) }

// Length returns the number of elements in the circular list: a walk
// of Length() steps is one lap, back where it started.
func (c *Chase) Length() int64 { return (c.size + c.stride - 1) / c.stride }

// WalkDirty performs n dependent loads, storing back to each element
// after loading it, so every line the walk evicts is modified. This is
// the §7 "dirty-read latency" workload: reads whose victims carry
// write-back costs.
func (c *Chase) WalkDirty(n int64) { c.walk(opWalkDirty, n) }

// WalkWrite performs n strided stores (the §7 "write latency"
// workload); addresses come from arithmetic, not loaded pointers, as a
// store chain cannot be made dependent.
func (c *Chase) WalkWrite(n int64) { c.walk(opWalkWrite, n) }

// walk performs n steps of the op variant. A lap of Length() steps
// returns to its start offset, so every whole lap is a pass keyed by
// that offset; its digest is amortised over the loads left in the walk.
// A trailing partial lap is simulated plainly.
func (c *Chase) walk(op passOp, n int64) {
	h := c.h
	var total ptime.Duration
	if lap := c.Length(); !h.noMemo {
		for n >= lap {
			k := passKey{op: op, arg: [6]uint64{c.base, uint64(c.size), uint64(c.stride), uint64(c.off)}}
			if h.replays(k) {
				laps := n / lap
				total += h.skipPasses(laps)
				n -= laps * lap
				break
			}
			total += h.pass(k, n >= h.lines, func() ptime.Duration { return c.steps(op, lap) })
			n -= lap
		}
	}
	if n > 0 {
		total += c.steps(op, n)
		h.epoch++
	}
	h.clk.Advance(total)
}

// steps simulates n steps of the op variant from the current offset
// and returns their cost. A plain walk charges the loads that follow
// each load inside its first-level line and TLB page, up to the end of
// the list, as one run of first-level hits (DESIGN.md §6f).
func (c *Chase) steps(op passOp, n int64) ptime.Duration {
	h := c.h
	runs := op == opWalk && len(h.caches) > 0 && c.stride < int64(h.caches[0].cfg.LineSize)
	var total ptime.Duration
	for i := int64(0); i < n; i++ {
		addr := c.base + uint64(c.off)
		switch op {
		case opWalk:
			total += h.loadCost(addr)
		case opWalkDirty:
			total += h.loadCost(addr)
			total += h.storeCost(addr)
		default:
			total += h.storeCost(addr)
		}
		c.next(1)
		if runs {
			k := min(n-1-i, h.sameLine(addr, uint64(c.stride), c.base+uint64(c.size)))
			total += h.rehitL1(addr, k)
			c.next(k)
			i += k
		}
	}
	return total
}

// next moves the chase k elements on, k not past the end of the list;
// the step off the last element wraps to the first.
func (c *Chase) next(k int64) {
	c.off += k * c.stride
	if c.off >= c.size {
		c.off = 0
	}
}

// PageChase walks the first word of each page in a scattered page
// list — the §7 TLB-measurement workload: one line per page keeps the
// cache footprint tiny while the page count sweeps past the TLB size.
type PageChase struct {
	h     *Hierarchy
	pages []uint64
	idx   int
}

// NewPageChase builds a chase over the given pages.
func (h *Hierarchy) NewPageChase(pages []uint64) *PageChase {
	return &PageChase{h: h, pages: pages}
}

// Walk performs n loads, one per page, wrapping around the list.
func (p *PageChase) Walk(n int64) {
	if len(p.pages) == 0 {
		return
	}
	h := p.h
	h.epoch++
	var total ptime.Duration
	for i := int64(0); i < n; i++ {
		total += h.loadCost(p.pages[p.idx])
		p.idx++
		if p.idx == len(p.pages) {
			p.idx = 0
		}
	}
	h.clk.Advance(total)
}

// Length returns the page count.
func (p *PageChase) Length() int64 { return int64(len(p.pages)) }
