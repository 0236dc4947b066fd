package simmem

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

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
// The repeat that proves the fixed point stops early where it can. A
// pass records marks at doubling step counts: the digest there, and
// the cost and counter delta so far. A repeat whose digest at a mark
// equals the previous pass's at the same mark makes the same references
// from the same state to the end, so it would end where the previous
// pass ended, which is where the repeat started: it stops there, returns
// to its start state and is charged the previous pass's rest.
//
// The epoch is the invalidation rule: every method that can change
// cache or TLB state outside a memoized pass bumps it, so a memo entry
// only ever describes the state the hierarchy is actually in.

// passOp names a memoizable pass. It is a whole word, like the key's
// arguments, so that a key is built, copied and compared in word-wide
// moves: a byte-wide op stored after a zeroing store could not be
// forwarded from the store buffer to the word loads that copy it.
type passOp uint64

const (
	opNone passOp = iota
	opStream
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

// passMark is what a pass recorded at one of its marks: the canonical
// state digest there, and the cost and Stats delta of the steps before.
type passMark struct {
	digest [sha256.Size]byte
	cost   ptime.Duration
	delta  Stats
}

// passMemo is the one-entry pass memo: a key, an epoch, a cost, a
// counter delta, the pass's marks and one digest, O(marks) in all. A
// repeat that may stop at a mark also holds its start state's canonical
// encoding while it runs.
type passMemo struct {
	key   passKey
	epoch uint64 // Hierarchy.epoch when the pass ended
	cost  ptime.Duration
	// delta is what the pass added to Stats, recorded for a marked pass:
	// only such a pass can prove a fixed point.
	delta Stats
	// marks are the marks the pass recorded, in step order.
	marks []passMark
	// digest is the canonical state digest at the pass's end, known
	// only when haveDigest is set.
	digest     [sha256.Size]byte
	haveDigest bool
	// fixed records that the pass started and ended in the same
	// canonical state, so it may be replayed from the memo.
	fixed bool

	// The marked pass being simulated, for mark: the Stats at its
	// start, the step of its first mark, the marks it has recorded, and
	// the index of the previous pass's mark it stopped at (-1 if none;
	// it stays set until the next marked pass starts).
	before Stats
	first  int64
	cur    []passMark
	at     int
}

// noMark is a loop's next-mark step outside a marked pass: no step
// reaches it.
const noMark = math.MaxInt64

// stopPass is what mark returns to a loop that must stop: its pass has
// rejoined the previous one.
const stopPass = -1

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

// pass returns the cost of one pass that the memo does not replay (the
// caller asks replays first, and charges a replayed pass and as many of
// its repeats as it holds through skipPasses) without advancing the
// clock: sim simulates the pass, marking it from step next on, and it
// is recorded. worth says whether the work the pass's repeats could
// save — its own probes, or for a chase lap the loads left in the walk
// — reaches the hierarchy's line count: only then is the pass marked
// and a repeat digested, so digesting (O(lines)) never costs more than
// the simulation it may save. A step of sim's loop makes perStep
// probes; the first mark comes once the pass has made as many probes as
// the hierarchy has lines (about when a repeat that runs past the caches
// has refilled them), and each later one at twice the steps of the one
// before.
func (h *Hierarchy) pass(k passKey, worth bool, perStep int64, sim func(next int64) ptime.Duration) ptime.Duration {
	m := &h.memo
	if !worth {
		cost := sim(noMark)
		m.key, m.epoch, m.cost = k, h.epoch, cost
		m.fixed, m.haveDigest, m.marks = false, false, m.marks[:0]
		return cost
	}
	check := m.key == k && m.epoch == h.epoch
	if !check {
		m.marks = m.marks[:0]
	}
	// A repeat that may stop at a mark keeps the encoding of its start
	// state, to return to it.
	var start []byte
	if check && len(m.marks) > 0 {
		start = h.snapshot()
		if !m.haveDigest {
			m.digest = sha256.Sum256(start)
		}
	} else if check && !m.haveDigest {
		m.digest = h.digest()
	}
	m.before = h.Stats()
	m.first = max(1, (h.lines+perStep-1)/perStep)
	m.cur, m.at = m.cur[:0], -1
	cost := sim(m.first)
	switch {
	case m.at >= 0:
		// The rest of the pass would repeat the previous pass's rest
		// and end in its end state, the start state of this one.
		mk := &m.marks[m.at]
		cost += m.cost - mk.cost
		h.stats.add(&m.delta, 1)
		h.stats.add(&mk.delta, -1)
		h.restore(start)
		m.fixed = true
	case check:
		d := h.digest()
		m.fixed = d == m.digest
		m.digest = d
	default:
		m.fixed = false
	}
	m.key, m.epoch, m.cost = k, h.epoch, cost
	m.haveDigest = check
	m.delta = h.Stats()
	m.delta.add(&m.before, -1)
	m.marks, m.cur = m.cur, m.marks
	return cost
}

// mark is called by a marked pass's loop at the first step that reaches
// its next mark, with the cost of the steps before. A repeat whose state
// there equals the previous pass's at the same mark stops: mark returns
// stopPass, and the loop returns the cost it has. Otherwise mark records
// the mark and returns the step of the next one.
func (h *Hierarchy) mark(cost ptime.Duration) int64 {
	m := &h.memo
	j := len(m.cur)
	d := h.digest()
	if j < len(m.marks) && m.marks[j].digest == d {
		m.at = j
		return stopPass
	}
	mk := passMark{digest: d, cost: cost, delta: h.Stats()}
	mk.delta.add(&m.before, -1)
	m.cur = append(m.cur, mk)
	return m.first << (j + 1)
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
	h.stats.add(&h.memo.delta, n)
	h.stats.PassesSkipped += n
	return h.memo.cost.Mul(n)
}

// digest hashes the canonical state of every cache level and the TLB:
// everything a later access can observe and nothing it cannot. Way
// numbers and absolute lru ticks are left out (DESIGN.md §6c).
func (h *Hierarchy) digest() [sha256.Size]byte {
	e := stateEncoder{h: sha256.New(), buf: make([]byte, 4096)}
	for _, c := range h.all {
		c.encodeState(&e)
	}
	return e.sum()
}

// snapshot returns the canonical encoding that digest hashes, in a
// buffer of exactly its size.
func (h *Hierarchy) snapshot() []byte {
	n := 0
	for _, c := range h.all {
		n += c.encodedSize()
	}
	e := stateEncoder{buf: make([]byte, n)}
	for _, c := range h.all {
		c.encodeState(&e)
	}
	return e.buf
}

// restore puts every cache level and the TLB into a state whose
// canonical encoding is b, a snapshot of this hierarchy. The fast-path
// hit counters are not state, and keep counting.
func (h *Hierarchy) restore(b []byte) {
	d := stateDecoder{b: b}
	for _, c := range h.all {
		c.decodeState(&d)
	}
}

// stateEncoder writes the canonical encoding into buf: streamed into a
// hash through a fixed buffer, so that digesting keeps nothing
// proportional to the cache, or, without a hash, into a buffer sized to
// hold the whole encoding.
type stateEncoder struct {
	h   hash.Hash
	n   int
	buf []byte
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

// absentFlag encodes an empty direct-mapped set: a flag no line starts
// with, so the per-set encoding stays prefix-free.
const absentFlag = 2

func (e *stateEncoder) absent() {
	e.room(1)
	e.buf[e.n] = absentFlag
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

// encodedSize is the length of the cache's canonical encoding.
func (c *cache) encodedSize() int {
	if c.full {
		return 4 + 9*len(c.idx)
	}
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n += 9
		} else if c.assoc == 1 {
			n++
		}
	}
	if c.assoc > 1 {
		n += 8 * int(c.nsets) // each set's resident count and hint rank
	}
	return n
}

// stateDecoder reads a canonical encoding back.
type stateDecoder struct{ b []byte }

func (d *stateDecoder) u32() uint32 {
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// line reads what stateEncoder.line or absent wrote: a resident line,
// or an invalid one for an absent marker.
func (d *stateDecoder) line() line {
	if d.b[0] == absentFlag {
		d.b = d.b[1:]
		return line{}
	}
	l := line{tag: binary.LittleEndian.Uint64(d.b[1:]), valid: true, dirty: d.b[0] == 1}
	d.b = d.b[9:]
	return l
}

// decodeState puts the cache into a state with the canonical encoding
// that d reads, as encodeState wrote it for this geometry. Resident
// lines take the lowest ways in recency order. In set-associative mode
// they take ticks above every tick handed out before, so that the ticks
// handed out after keep exceeding every stored one.
func (c *cache) decodeState(d *stateDecoder) {
	c.flush()
	switch {
	case c.full:
		for n := d.u32(); n > 0; n-- {
			w := c.freeW[len(c.freeW)-1]
			c.freeW = c.freeW[:len(c.freeW)-1]
			c.lines[w] = d.line()
			c.idx[c.lines[w].tag] = w
			// Append at the LRU end: the encoding runs from MRU to LRU.
			c.prevW[w], c.nextW[w] = c.tailW, -1
			if c.tailW >= 0 {
				c.nextW[c.tailW] = w
			} else {
				c.headW = w
			}
			c.tailW = w
		}
	case c.assoc == 1:
		for i := range c.lines {
			c.lines[i] = d.line()
		}
	default:
		t := c.tick + uint64(c.assoc)
		for s := uint64(0); s < c.nsets; s++ {
			ways := c.lines[s*uint64(c.assoc) : (s+1)*uint64(c.assoc)]
			n := d.u32()
			for r := uint32(0); r < n; r++ {
				ways[r] = d.line()
				ways[r].lru = t - uint64(r)
			}
			// A hint that names no resident line names an invalid
			// way; a set with such a hint has one free, way n.
			if c.mru[s] = d.u32(); c.mru[s] == noHint {
				c.mru[s] = n
			}
		}
		c.tick = t
	}
}
