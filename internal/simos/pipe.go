package simos

import (
	"errors"
	"math/rand"
)

// Pipe is a simulated Unix pipe: a one-way byte stream with a kernel
// buffer. Data movement is charged as two bcopy passes through the
// memory hierarchy (user->kernel, kernel->user), which is why simulated
// pipe bandwidth comes out near half of bcopy bandwidth, as §5.2
// predicts.
type Pipe struct {
	o    *OS
	kbuf uint64 // kernel buffer region
}

// NewPipe allocates a pipe with the configured kernel buffer size.
func (o *OS) NewPipe() *Pipe {
	return &Pipe{o: o, kbuf: o.mem.Alloc(int64(o.cfg.PipeBufBytes))}
}

// Transfer moves n bytes from the writer's buffer at src to the
// reader's buffer at dst, charging per-chunk: a write syscall, a bcopy
// into the kernel, a context switch to the reader, a read syscall, and
// a bcopy out to the reader. Returns an error for non-positive n.
func (p *Pipe) Transfer(src, dst uint64, n int64) error {
	if n <= 0 {
		return errors.New("simos: pipe transfer needs positive size")
	}
	buf := int64(p.o.cfg.PipeBufBytes)
	for off := int64(0); off < n; off += buf {
		chunk := buf
		if rem := n - off; rem < chunk {
			chunk = rem
		}
		p.o.Syscall() // write
		p.o.mem.StreamCopy(src+uint64(off), p.kbuf, chunk)
		p.o.ContextSwitch() // writer blocks, reader runs
		p.o.Syscall()       // read
		p.o.mem.StreamCopy(p.kbuf, dst+uint64(off), chunk)
	}
	return nil
}

// TokenRoundTrip charges one hot-potato exchange between two processes
// over a pair of pipes (Table 11): process A writes a word, B wakes and
// reads it, B writes it back, A wakes and reads it. That is four
// syscalls, four word copies and two context switches.
func (p *Pipe) TokenRoundTrip(scratchA, scratchB uint64) {
	const word = 8
	// A -> B.
	p.o.Syscall()
	p.o.mem.StreamCopy(scratchA, p.kbuf, word)
	p.o.ContextSwitch()
	p.o.Syscall()
	p.o.mem.StreamCopy(p.kbuf, scratchB, word)
	// B -> A.
	p.o.Syscall()
	p.o.mem.StreamCopy(scratchB, p.kbuf, word)
	p.o.ContextSwitch()
	p.o.Syscall()
	p.o.mem.StreamCopy(p.kbuf, scratchA, word)
}

// Ring is the §6.6 context-switch benchmark: 2..20 simulated processes
// connected by pipes, each with an optional cache footprint it re-sums
// on every token receipt. "Since most systems will cache data across
// context switches, the working set for the benchmark is slightly
// larger than the number of processes times the array size."
type Ring struct {
	o          *OS
	footprints [][]uint64 // per-process page lists
	pageSize   int64
	lastPage   int64 // bytes summed on the final (partial) page
	scratch    uint64
	kbuf       uint64
	cur        int
}

// NewRing builds a ring of n processes each with a footprint of the
// given byte size (0 means no footprint). Footprint pages are placed at
// pseudo-random simulated physical addresses — the paper attributes
// context-switch variability to exactly this: "the operating system is
// not using the same set of physical pages each time a process is
// created and we are seeing the effects of collisions in the external
// caches."
func (o *OS) NewRing(n int, footprint int64) (*Ring, error) {
	if n < 1 {
		return nil, errors.New("simos: ring needs at least one process")
	}
	if footprint < 0 {
		return nil, errors.New("simos: negative footprint")
	}
	r := &Ring{
		o:        o,
		pageSize: o.mem.PageSize(),
		scratch:  o.mem.Alloc(64),
		kbuf:     o.mem.Alloc(int64(o.cfg.PipeBufBytes)),
	}
	// Deterministic placement per ring shape so runs are reproducible.
	rng := rand.New(rand.NewSource(int64(n)*7919 + footprint))
	pages := int((footprint + r.pageSize - 1) / r.pageSize)
	r.lastPage = footprint - int64(pages-1)*r.pageSize
	for i := 0; i < n; i++ {
		var pp []uint64
		if footprint > 0 {
			pp = o.mem.AllocPages(pages, r.pageSize, rng)
		}
		r.footprints = append(r.footprints, pp)
	}
	return r, nil
}

// Procs returns the number of processes in the ring.
func (r *Ring) Procs() int { return len(r.footprints) }

// Pass moves the token one hop: the current process writes the token
// (syscall + word copy into the kernel), the scheduler switches to the
// next process (unless the ring is a single process, the degenerate
// form used to measure overhead), which reads the token (syscall + word
// copy out) and then sums its footprint through the shared caches.
func (r *Ring) Pass() {
	const word = 8
	r.o.Syscall()
	r.o.mem.StreamCopy(r.scratch, r.kbuf, word)
	if len(r.footprints) > 1 {
		r.o.ContextSwitch()
		r.cur = (r.cur + 1) % len(r.footprints)
	}
	r.o.Syscall()
	r.o.mem.StreamCopy(r.kbuf, r.scratch, word)
	if pp := r.footprints[r.cur]; len(pp) > 0 {
		r.o.mem.StreamReadPages(pp[:len(pp)-1], r.pageSize)
		r.o.mem.StreamRead(pp[len(pp)-1], r.lastPage)
	}
}

// Warm circulates the token around the whole ring once so that steady
// state is reached before measurement.
func (r *Ring) Warm() {
	for i := 0; i < len(r.footprints); i++ {
		r.Pass()
	}
}
