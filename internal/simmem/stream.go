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
//     move-to-front is a no-op, so a stream probes only at its first
//     chunk and at each chunk that starts a new page. That needs no
//     per-stream state: a chunk at a, after the first, starts a new
//     page iff a%page < chunk. For chunk <= page, the chunk before it
//     at a-chunk lies on a's page iff a%page >= chunk; for chunk > page
//     consecutive chunks never share a page, and a%page < page < chunk.
//     With several interleaved streams the skip is applied only when
//     Hierarchy.tlbHoistStreams proves no stream's entry can be evicted
//     mid-page; otherwise every chunk probes.
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

// maxKernelSrcs is the most source streams a STREAM kernel reads (Add
// and Triad read two).
const maxKernelSrcs = 2

// streams is the shape of one streaming loop: up to three address
// streams walked in step, one chunk of each per iteration in probe
// order; whether the last of them is a store stream, and whether its
// stores bypass the caches; and the loop's instruction issue time per
// chunk. Per chunk the loop costs the larger of the issue time and the
// streams' line fill times (loads and fills overlap under sequential
// access), plus the TLB walks and the writebacks of dirty victims.
type streams struct {
	addr          [maxKernelSrcs + 1]uint64
	n             int
	store, bypass bool
	issue         ptime.Duration
}

// readStream is the shape of StreamRead's loop over addr. The shape
// constructors inline, so the literal they return is built in place on
// the caller's stack rather than copied there.
func (h *Hierarchy) readStream(addr uint64) *streams {
	return &streams{addr: [3]uint64{addr}, n: 1, issue: h.readIssue}
}

// writeStream is the shape of StreamWrite's loop over addr.
func (h *Hierarchy) writeStream(addr uint64) *streams {
	return &streams{addr: [3]uint64{addr}, n: 1, store: true, bypass: h.cfg.NoWriteAllocate, issue: h.writeIssue}
}

// copyStreams is the shape of a copy loop from src to dst.
func (h *Hierarchy) copyStreams(src, dst uint64, hwCopy bool) *streams {
	return &streams{addr: [3]uint64{src, dst}, n: 2, store: true, bypass: hwCopy, issue: h.copyIssue}
}

// run charges the stream call s over bytes per stream. A call too short
// to pay for a digest is simulated plainly; any other is one pass.
func (h *Hierarchy) run(s *streams, bytes int64) {
	if bytes <= 0 {
		return
	}
	var d ptime.Duration
	if h.short(int64(s.n) * bytes) {
		d = h.stream(s, bytes, noMark)
	} else if k := s.key(bytes); h.replays(k) {
		d = h.skipPasses(1)
	} else {
		d = h.pass(k, true, int64(s.n), func(next int64) ptime.Duration { return h.stream(s, bytes, next) })
	}
	h.clk.Advance(d)
}

// key is the pass key of s streaming bytes: every input the stream's
// outcome depends on.
func (s *streams) key(bytes int64) passKey {
	flags := uint64(s.n)
	if s.store {
		flags |= 1 << 2
	}
	if s.bypass {
		flags |= 1 << 3
	}
	return passKey{op: opStream, arg: [6]uint64{s.addr[0], s.addr[1], s.addr[2], uint64(bytes), flags, uint64(s.issue)}}
}

// stream simulates the loop s over bytes per stream and returns its
// cost. Its steps are chunks, marked from step next on (noMark outside
// a marked pass); a pass stopped at a mark returns the cost so far.
func (h *Hierarchy) stream(s *streams, bytes, next int64) ptime.Duration {
	chunk := uint64(h.chunk)
	hoist := h.tlbHoistStreams >= s.n
	addrs := s.addr[:s.n]
	st, cached := s.n, s.n // the store stream, and the streams the caches see
	if s.store {
		st--
		if s.bypass {
			cached--
		}
	}
	var total ptime.Duration
	// The step test compares offsets: at is the offset of the chunk that
	// takes the next mark, past the end for noMark.
	at := min(uint64(next), uint64(bytes)) * chunk
	for off := uint64(0); off < uint64(bytes); off += chunk {
		if off >= at {
			if next = h.mark(total); next == stopPass {
				return total
			}
			at = min(uint64(next), uint64(bytes)) * chunk
		}
		var cost, mem ptime.Duration
		for i, a := range addrs {
			a += off
			if off == 0 || !hoist || h.pageOff(a) < chunk {
				cost += h.tlbAccess(a)
			}
			if i < cached {
				lvl := h.level(a, i == st)
				cost += h.fetch(a, lvl, i == st)
				mem += h.fill[lvl]
			} else {
				// Stores stream past the caches straight to memory.
				h.stats.MemAccesses++
				h.stats.Writebacks++
				mem += h.memWB
			}
		}
		total += cost + maxDur(s.issue, mem)
	}
	return total
}

// StreamRead models the unrolled read-and-sum loop over [addr,
// addr+bytes): sequential word loads with enough independent work that
// fills pipeline. Per chunk the cost is the larger of the instruction
// issue time and the line fill time (loads and fills overlap under
// sequential access), unlike Load which charges the full dependent-load
// latency.
func (h *Hierarchy) StreamRead(addr uint64, bytes int64) {
	h.run(h.readStream(addr), bytes)
}

// StreamWrite models the unrolled store loop over [addr, addr+bytes).
// With write-allocate caches every missing destination line is read
// before it is written (the paper: "the written cache line will
// typically be read before it is written"), so a pure write moves twice
// the reported bytes. NoWriteAllocate skips the fill and streams stores
// to memory.
func (h *Hierarchy) StreamWrite(addr uint64, bytes int64) {
	h.run(h.writeStream(addr), bytes)
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
	s := h.readStream(addr)
	if write {
		s = h.writeStream(addr)
	}
	p := StreamPrice{Issue: s.issue}
	if bytes <= 0 {
		return p, nil
	}
	h.epoch++ // simulated outside a memoized pass
	fills, wbs := h.stats.MemAccesses, h.stats.Writebacks
	d := h.stream(s, bytes, noMark)
	h.clk.Advance(d)
	p.Fills = h.stats.MemAccesses - fills
	p.Writebacks = h.stats.Writebacks - wbs
	p.Fixed = d - maxDur(p.Issue, h.fill[len(h.caches)]).Mul(p.Fills) - h.memWB.Mul(p.Writebacks)
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
	h.run(h.copyStreams(src, dst, hwCopy), bytes)
}

// ReadLoop models read(2) of n bytes from the kernel buffer at src into
// the user buffer at dst, in calls of at most call bytes: per call, the
// syscall overhead perCall, a bcopy of the call's bytes into dst (with
// the machine's HWCopy mode), then the user's streaming sum of dst
// ("Each buffer is summed as a series of integers in the user
// process"). The whole loop is one pass whose key carries perCall, and
// whose steps, for marks, are its calls.
func (h *Hierarchy) ReadLoop(src, dst uint64, n, call int64, perCall ptime.Duration) {
	if n <= 0 {
		return
	}
	if call <= 0 {
		call = n
	}
	loop := func(next int64) ptime.Duration {
		var total ptime.Duration
		for step, p := int64(0), int64(0); p < n; step, p = step+1, p+call {
			if step >= next {
				if next = h.mark(total); next == stopPass {
					return total
				}
			}
			c := min(call, n-p)
			if perCall > 0 { // the clock ignores non-positive charges
				total += perCall
			}
			total += h.stream(h.copyStreams(src+uint64(p), dst, h.cfg.HWCopy), c, noMark)
			total += h.stream(h.readStream(dst), c, noMark)
		}
		return total
	}
	k := passKey{op: opReadLoop, arg: [6]uint64{src, dst, uint64(n), uint64(call), uint64(perCall)}}
	var d ptime.Duration
	if h.short(3 * n) {
		d = loop(noMark)
	} else if h.replays(k) {
		d = h.skipPasses(1)
	} else {
		d = h.pass(k, true, 3*((call+h.chunk-1)/h.chunk), loop)
	}
	h.clk.Advance(d)
}

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
	s := streams{n: len(srcs) + 1, store: true, issue: h.cpu.OpTime(h.chunkWords * int64(max(opsPerWord, 1)))}
	copy(s.addr[:], srcs)
	s.addr[len(srcs)] = dst
	h.run(&s, bytes)
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
// that offset; its digests are amortised over the loads left in the
// walk. A lap stopped at a mark is moved on to its end, which is its
// start. A trailing partial lap is simulated plainly.
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
			start := c.off
			total += h.pass(k, n >= h.lines, 1, func(next int64) ptime.Duration { return c.steps(op, lap, next) })
			c.off = start
			n -= lap
		}
	}
	if n > 0 {
		total += c.steps(op, n, noMark)
		h.epoch++
	}
	h.clk.Advance(total)
}

// steps simulates n steps of the op variant from the current offset
// and returns their cost, marked from step next on as stream's are. A
// plain walk charges the loads that follow each load inside its
// first-level line and TLB page, up to the end of the list, as one run
// of first-level hits (DESIGN.md §6f).
func (c *Chase) steps(op passOp, n, next int64) ptime.Duration {
	h := c.h
	runs := op == opWalk && len(h.caches) > 0 && c.stride < int64(h.caches[0].cfg.LineSize)
	var total ptime.Duration
	for i := int64(0); i < n; i++ {
		if i >= next {
			if next = h.mark(total); next == stopPass {
				return total
			}
		}
		addr := c.base + uint64(c.off)
		switch op {
		case opWalk:
			total += h.refCost(addr, false)
		case opWalkDirty:
			total += h.refCost(addr, false) + h.refCost(addr, true)
		default:
			total += h.refCost(addr, true)
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
		total += h.refCost(p.pages[p.idx], false)
		p.idx++
		if p.idx == len(p.pages) {
			p.idx = 0
		}
	}
	h.clk.Advance(total)
}

// Length returns the page count.
func (p *PageChase) Length() int64 { return int64(len(p.pages)) }
