package host

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
)

// This file implements the §7 future-work extension capabilities on
// the host: chase variants (dirty-read, write latency), the scattered-
// page TLB chase, the McCalpin STREAM kernels, and a real cache-to-
// cache ping-pong between two pinned OS threads.

// dirtyChase walks the pointer chain and stores each element back, so
// every evicted line is modified.
type dirtyChase struct {
	hostChase
}

func (c *dirtyChase) Walk(n int64) error {
	p := c.cur
	ws := c.words
	for i := int64(0); i < n; i++ {
		next := ws[p]
		ws[p] = next // real store: re-dirty the line
		p = next
	}
	c.cur = p
	Sink += p
	return nil
}

// writeChase stores through the array at the stride; addresses come
// from arithmetic (stores cannot be made dependent).
type writeChase struct {
	words   []uint64
	strideW int64
	pos     int64
	length  int64
}

func (c *writeChase) Walk(n int64) error {
	ws := c.words
	pos := c.pos
	limit := int64(len(ws))
	for i := int64(0); i < n; i++ {
		ws[pos] = 0xdead
		pos += c.strideW
		if pos >= limit {
			pos -= limit
		}
	}
	c.pos = pos
	return nil
}

func (c *writeChase) Length() int64 { return c.length }

// NewChaseVariant implements core.MemOps.
func (mo *memOps) NewChaseVariant(r core.Region, size, stride int64, v core.ChaseVariant) (core.Chase, error) {
	base, err := mo.NewChase(r, size, stride)
	if err != nil {
		return nil, err
	}
	hc := base.(*hostChase)
	switch v {
	case core.ChaseClean:
		return hc, nil
	case core.ChaseDirty:
		return &dirtyChase{hostChase: *hc}, nil
	case core.ChaseWrite:
		strideW := stride / 8
		if strideW < 1 {
			strideW = 1
		}
		return &writeChase{
			words:   hc.words,
			strideW: strideW,
			length:  int64(len(hc.words)) / strideW,
		}, nil
	default:
		return nil, fmt.Errorf("host: unknown chase variant %v", v)
	}
}

// NewPageChase implements core.MemOps: a dependent chain visiting
// one word on each page in a random order, defeating both the TLB (one
// entry per hop) and sequential prefetch.
func (mo *memOps) NewPageChase(pages int) (core.Chase, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("host: page chase needs pages")
	}
	pageWords := int64(os.Getpagesize()) / 8
	words := make([]uint64, int64(pages)*pageWords)
	perm := rand.New(rand.NewSource(int64(pages))).Perm(pages)
	for i := 0; i < pages; i++ {
		from := int64(perm[i]) * pageWords
		to := int64(perm[(i+1)%pages]) * pageWords
		words[from] = uint64(to)
	}
	return &hostChase{words: words, length: int64(pages), cur: uint64(int64(perm[0]) * pageWords)}, nil
}

// PageSize implements core.MemOps.
func (mo *memOps) PageSize() int64 { return int64(os.Getpagesize()) }

// RunStreamKernel implements core.MemOps with the canonical
// unrolled double-precision loops.
func (mo *memOps) RunStreamKernel(k core.StreamKind, bytes int64) error {
	if bytes <= 0 {
		return fmt.Errorf("host: stream kernel needs positive size")
	}
	n := bytes / 8
	if int64(len(mo.streamA)) < n {
		mo.streamA = make([]float64, n)
		mo.streamB = make([]float64, n)
		mo.streamC = make([]float64, n)
		for i := range mo.streamB {
			mo.streamB[i] = 1.0
			mo.streamC[i] = 2.0
		}
	}
	a, b, c := mo.streamA[:n], mo.streamB[:n], mo.streamC[:n]
	const q = 3.0
	switch k {
	case core.StreamCopy:
		copy(a, b)
	case core.StreamScale:
		i := 0
		for ; i+4 <= len(a); i += 4 {
			a[i+0] = q * b[i+0]
			a[i+1] = q * b[i+1]
			a[i+2] = q * b[i+2]
			a[i+3] = q * b[i+3]
		}
		for ; i < len(a); i++ {
			a[i] = q * b[i]
		}
	case core.StreamAdd:
		i := 0
		for ; i+4 <= len(a); i += 4 {
			a[i+0] = b[i+0] + c[i+0]
			a[i+1] = b[i+1] + c[i+1]
			a[i+2] = b[i+2] + c[i+2]
			a[i+3] = b[i+3] + c[i+3]
		}
		for ; i < len(a); i++ {
			a[i] = b[i] + c[i]
		}
	case core.StreamTriad:
		i := 0
		for ; i+4 <= len(a); i += 4 {
			a[i+0] = b[i+0] + q*c[i+0]
			a[i+1] = b[i+1] + q*c[i+1]
			a[i+2] = b[i+2] + q*c[i+2]
			a[i+3] = b[i+3] + q*c[i+3]
		}
		for ; i < len(a); i++ {
			a[i] = b[i] + q*c[i]
		}
	default:
		return fmt.Errorf("host: unknown stream kernel %v", k)
	}
	return nil
}

// smpPeer is the pinned thread on the far side of the cache-to-cache
// experiments. Commands flow through a single padded atomic word.
type smpPeer struct {
	_    [8]uint64 // padding: keep flag on its own cache line
	flag atomic.Uint64
	_    [8]uint64
	data []uint64
	n    atomic.Int64
}

const (
	smpIdle  = iota
	smpPing  // bounce the flag back
	smpDirty // write data[0:n] (dirty it in the peer's cache)
	smpDone
	smpStop
)

func (o *osOps) ensurePeer() (*smpPeer, error) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("host: cache-to-cache needs two CPUs: %w", core.ErrUnsupported)
	}
	if o.peer != nil {
		return o.peer, nil
	}
	p := &smpPeer{data: make([]uint64, (1<<20)/8)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		spins := 0
		for {
			switch p.flag.Load() {
			case smpPing:
				p.flag.Store(smpDone)
				spins = 0
			case smpDirty:
				n := p.n.Load()
				d := p.data
				for i := int64(0); i < n && i < int64(len(d)); i++ {
					d[i]++
				}
				p.flag.Store(smpDone)
				spins = 0
			case smpStop:
				return
			default:
				spins++
				if spins > 1<<14 {
					runtime.Gosched()
					spins = 0
				}
			}
		}
	}()
	o.peer = p
	return p, nil
}

// CacheToCachePingPong implements core.OSOps: one command/ack exchange
// through a contended cache line.
func (o *osOps) CacheToCachePingPong() error {
	p, err := o.ensurePeer()
	if err != nil {
		return err
	}
	p.flag.Store(smpPing)
	for p.flag.Load() != smpDone {
	}
	p.flag.Store(smpIdle)
	return nil
}

// CacheToCacheTransfer implements core.OSOps: the peer dirties n bytes
// in its cache; we then read them, pulling modified lines across.
func (o *osOps) CacheToCacheTransfer(n int64) error {
	p, err := o.ensurePeer()
	if err != nil {
		return err
	}
	words := n / 8
	if words > int64(len(p.data)) {
		words = int64(len(p.data))
	}
	p.n.Store(words)
	p.flag.Store(smpDirty)
	for p.flag.Load() != smpDone {
	}
	p.flag.Store(smpIdle)
	var s uint64
	for i := int64(0); i < words; i++ {
		s += p.data[i]
	}
	Sink += s
	return nil
}

func (o *osOps) stopPeer() {
	if o.peer != nil {
		o.peer.flag.Store(smpStop)
		o.peer = nil
	}
}

// PhysicalMemoryBytes implements core.OSOps by reading the OS's
// accounting (the host backend does not risk forcing real paging).
func (o *osOps) PhysicalMemoryBytes() (int64, error) {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0, fmt.Errorf("host: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "MemTotal:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("host: MemTotal not found in /proc/meminfo")
}

// TouchPages implements core.OSOps: the host reports its memory through
// PhysicalMemoryBytes and never forces real paging.
func (o *osOps) TouchPages(int64) error {
	return fmt.Errorf("host: page-touch probe: %w", core.ErrUnsupported)
}

// ProbePageBytes implements core.OSOps.
func (o *osOps) ProbePageBytes() int64 { return int64(os.Getpagesize()) }
