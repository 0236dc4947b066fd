package simmem

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"repro/internal/ptime"
)

// Steady-state pass skipping (DESIGN.md §6c). The paper's harness warms
// caches and repeats every timed loop, so the simulator keeps replaying
// passes — a whole stream call, one lap of a pointer chase, one read()
// loop — whose outcome is already fixed. The hierarchy keeps a one-entry
// memo of the last such pass: its key (op and arguments), the epoch at
// which it ended, its cost and the delta it added to every Stats
// counter. A pass is a deterministic function of its key and the
// canonical cache/TLB state it starts from, so once a repeat of a pass
// is proven to leave the canonical state where it found it (equal
// SHA-256 digests before and after), every later identical pass at the
// same epoch would start from that state again: it is charged the
// recorded cost and counter delta without being simulated.
//
// The epoch is the invalidation rule: every method that can change
// cache or TLB state outside a memoized pass bumps it, so a memo entry
// only ever describes the state the hierarchy is actually in.

// passOp names a memoizable pass.
type passOp uint8

const (
	opNone passOp = iota
	opRead
	opWrite
	opCopy
	opKernel
	opReadLoop
	opWalk
	opWalkDirty
	opWalkWrite
)

// passKey identifies a pass: its op and every argument its outcome
// depends on.
type passKey struct {
	op  passOp
	arg [6]uint64
}

// passDelta is what one pass adds to the Stats counters.
type passDelta struct {
	hits                          []int64 // per cache level
	mem, tlbMiss, wb, mruH, indxH int64
}

// passMemo is the one-entry pass memo. Its state is O(1) in the cache
// size: a key, an epoch, a cost, a counter delta and one digest.
type passMemo struct {
	key   passKey
	epoch uint64 // Hierarchy.epoch when the pass ended
	cost  ptime.Duration
	delta passDelta
	// digest is the canonical state digest at the pass's end, known
	// only when haveDigest is set.
	digest     [sha256.Size]byte
	haveDigest bool
	// fixed records that the pass started and ended in the same
	// canonical state, so it may be replayed from the memo.
	fixed bool
}

// short reports whether a whole-call pass (a stream op or the read
// loop) streaming bytes in total over its streams probes fewer lines
// than the hierarchy holds. Such a pass can never pay for a digest, so
// the caller simulates it without bookkeeping; short bumps the epoch
// for it, since it changes the state.
func (h *Hierarchy) short(bytes int64) bool {
	if h.noMemo || bytes < h.lines*h.chunk {
		h.epoch++
		return true
	}
	return false
}

// pass returns the cost of one pass without advancing the clock. When
// the memo proves the pass's outcome it is charged from the memo;
// otherwise sim simulates it and it is recorded. worth says whether
// the work the pass's repeats could save — its own probes, or for a
// chase lap the loads left in the walk — reaches the hierarchy's line
// count: only then is a repeat digested, so digesting (O(lines)) never
// costs more than the simulation it may save.
func (h *Hierarchy) pass(k passKey, worth bool, sim func() ptime.Duration) ptime.Duration {
	if h.replays(k) {
		return h.skipPasses(1)
	}
	m := &h.memo
	check := worth && m.key == k && m.epoch == h.epoch
	if check && !m.haveDigest {
		m.digest = h.digest()
	}
	h.countersInto(&m.delta, -1)
	cost := sim()
	h.countersInto(&m.delta, 1)
	m.key, m.epoch, m.cost = k, h.epoch, cost
	m.fixed, m.haveDigest = false, check
	if check {
		d := h.digest()
		m.fixed = d == m.digest
		m.digest = d
	}
	return cost
}

// replays reports whether pass k would start from the memoized pass's
// proven fixed point: the same pass, with nothing changed since.
func (h *Hierarchy) replays(k passKey) bool {
	m := &h.memo
	return m.fixed && m.key == k && m.epoch == h.epoch
}

// skipPasses charges n repeats of the memoized fixed-point pass: the
// counters advance by n recorded deltas and the returned cost is n
// recorded costs. The cache state is untouched (it is the fixed point),
// so the epoch stays put and the memo stays valid.
func (h *Hierarchy) skipPasses(n int64) ptime.Duration {
	d := &h.memo.delta
	for i, v := range d.hits {
		h.stats.Hits[i] += n * v
	}
	h.stats.MemAccesses += n * d.mem
	h.stats.TLBMisses += n * d.tlbMiss
	h.stats.Writebacks += n * d.wb
	h.stats.MRUHits += n * d.mruH
	h.stats.IndexHits += n * d.indxH
	h.stats.PassesSkipped += n
	return h.memo.cost.Mul(n)
}

// countersInto adds sign times the current counters to d: -1 before a
// pass and +1 after it leaves d holding the pass's delta.
func (h *Hierarchy) countersInto(d *passDelta, sign int64) {
	if sign < 0 {
		clear(d.hits)
		*d = passDelta{hits: d.hits}
	}
	for i, v := range h.stats.Hits {
		d.hits[i] += sign * v
	}
	d.mem += sign * h.stats.MemAccesses
	d.tlbMiss += sign * h.stats.TLBMisses
	d.wb += sign * h.stats.Writebacks
	for _, c := range h.caches {
		d.mruH += sign * c.mruHits
		d.indxH += sign * c.idxHits
	}
	if h.tlb != nil {
		d.mruH += sign * h.tlb.c.mruHits
		d.indxH += sign * h.tlb.c.idxHits
	}
}

// digest hashes the canonical state of every cache level and the TLB:
// everything a later access can observe and nothing it cannot. Way
// numbers and absolute lru ticks are left out (DESIGN.md §6c).
func (h *Hierarchy) digest() [sha256.Size]byte {
	e := stateEncoder{h: sha256.New()}
	for _, c := range h.caches {
		c.encodeState(&e)
	}
	if h.tlb != nil {
		h.tlb.c.encodeState(&e)
	}
	return e.sum()
}

// stateEncoder streams the canonical encoding into a hash through a
// fixed buffer, so digesting keeps nothing proportional to the cache.
type stateEncoder struct {
	h   hash.Hash
	n   int
	buf [4096]byte
}

func (e *stateEncoder) room(n int) {
	if e.n+n > len(e.buf) {
		e.h.Write(e.buf[:e.n])
		e.n = 0
	}
}

func (e *stateEncoder) u32(v uint32) {
	e.room(4)
	binary.LittleEndian.PutUint32(e.buf[e.n:], v)
	e.n += 4
}

// line encodes one resident line: a dirty flag, then its tag.
func (e *stateEncoder) line(l *line) {
	e.room(9)
	e.buf[e.n] = 0
	if l.dirty {
		e.buf[e.n] = 1
	}
	binary.LittleEndian.PutUint64(e.buf[e.n+1:], l.tag)
	e.n += 9
}

// absent encodes an empty direct-mapped set: a flag no line starts
// with, so the per-set encoding stays prefix-free.
func (e *stateEncoder) absent() {
	e.room(1)
	e.buf[e.n] = 2
	e.n++
}

func (e *stateEncoder) sum() [sha256.Size]byte {
	e.h.Write(e.buf[:e.n])
	var out [sha256.Size]byte
	e.h.Sum(out[:0])
	return out
}

// noHint encodes an MRU hint that names an invalid way: such a hint
// never answers a probe, whichever invalid way it names.
const noHint = ^uint32(0)

// encodeState writes the cache's canonical state. The geometry is fixed
// per hierarchy, so the encoding parses unambiguously:
//
//   - fully-associative mode: the resident count, then (dirty, tag) in
//     list order from MRU to LRU;
//   - direct-mapped: per set, (dirty, tag) or an absent marker;
//   - set-associative: per set, the resident count, (dirty, tag) in
//     recency order from MRU to LRU, and the MRU hint's rank in that
//     order (noHint when it names an invalid way).
func (c *cache) encodeState(e *stateEncoder) {
	switch {
	case c.full:
		e.u32(uint32(len(c.idx)))
		for w := c.headW; w >= 0; w = c.nextW[w] {
			e.line(&c.lines[w])
		}
	case c.assoc == 1:
		for i := range c.lines {
			if l := &c.lines[i]; l.valid {
				e.line(l)
			} else {
				e.absent()
			}
		}
	default:
		ord := make([]int, 0, c.assoc)
		for s := uint64(0); s < c.nsets; s++ {
			ways := c.lines[s*uint64(c.assoc) : (s+1)*uint64(c.assoc)]
			ord = ord[:0]
			for w := range ways {
				if !ways[w].valid {
					continue
				}
				// Insertion sort by descending tick: ways are few,
				// and ticks are unique within a cache.
				i := len(ord)
				ord = append(ord, w)
				for ; i > 0 && ways[ord[i-1]].lru < ways[w].lru; i-- {
					ord[i] = ord[i-1]
				}
				ord[i] = w
			}
			e.u32(uint32(len(ord)))
			hint := noHint
			for r, w := range ord {
				e.line(&ways[w])
				if w == int(c.mru[s]) {
					hint = uint32(r)
				}
			}
			e.u32(hint)
		}
	}
}
