// Package machines assembles the simulation substrates (clock, CPU,
// memory hierarchy, OS, network, file system, disk) into complete
// simulated machines implementing core.Machine, and provides calibrated
// profiles for the paper's Table-1 systems.
//
// Profiles specify paper-observable quantities (clock rate, cache
// geometry and latencies from Table 6, read/write bandwidth from
// Table 2, syscall cost from Table 7, round-trip targets from Tables
// 12-15, metadata targets from Table 16). Build inverts the mechanistic
// cost models to find the underlying parameters — e.g. DRAM streaming
// fill time from read bandwidth, per-page fork cost from the Table 9
// total — so that every *derived* result (bandwidth ratios, Figure 1
// plateaus, the Figure 2 knee, the process-creation ladder) emerges
// from the simulation rather than being looked up.
package machines

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simdisk"
	"repro/internal/simfs"
	"repro/internal/simmem"
	"repro/internal/simnet"
	"repro/internal/simos"
	"repro/internal/simsmp"
	"repro/internal/timing"
)

// pageSeed fixes the OS page-placement stream; Reset rewinds it so
// every experiment group sees the same "freshly booted" allocator.
const pageSeed = 20260705

// Machine is a fully assembled simulated machine.
type Machine struct {
	profile Profile

	clk     *sim.Clock
	cpu     *sim.CPU
	mem     *simmem.Hierarchy
	os      *simos.OS
	net     *simnet.Net
	fs      *simfs.FS
	disk    *simdisk.Disk
	pageRNG *rand.Rand

	// heapMark is the simulated heap position once the fixed build-time
	// allocations (pipe and socket buffers, scratch words) are in place;
	// Reset rewinds the heap here.
	heapMark uint64

	memOps  *memOps
	osOps   *osOps
	netOps  *netOps
	fsOps   *fsOps
	diskOps *diskOps
}

var _ core.Machine = (*Machine)(nil)
var _ core.Resetter = (*Machine)(nil)
var _ core.Cloner = (*Machine)(nil)
var _ core.SimStatser = (*Machine)(nil)

// Reset implements core.Resetter: it restores the machine's pristine
// post-build state — caches and TLB cold, the bump heap rewound to its
// post-build mark, the page pool and page-placement RNG rewound, no
// files, the disk head parked with an empty read-ahead buffer. The
// suite calls this before every experiment attempt so that a group's
// results depend only on the machine and the group, never on which
// experiments ran earlier — the property that makes a resumed run
// (where earlier groups are replayed from the journal, not executed)
// byte-identical to an uninterrupted one. The virtual clock is NOT
// rewound: measurements are durations, and a monotonic clock must stay
// monotonic.
func (m *Machine) Reset() {
	m.mem.Reset(m.heapMark)
	m.os.Reset()
	m.fs.Reset()
	m.disk.Reset()
	m.pageRNG = rand.New(rand.NewSource(pageSeed))
	// Lazily grown structures sit above the heap mark; drop them so
	// they reallocate (at the same addresses) on next use.
	m.memOps.streamArr = [3]uint64{}
	m.memOps.streamSize = 0
	m.osOps.smp = nil
	m.osOps.pp = 0
	m.osOps.vm = nil
	m.fsOps.created = make(map[string]bool)
	if m.diskOps != nil {
		m.diskOps.pos = 0
	}
}

// SimStats implements core.SimStatser: a snapshot of the memory
// hierarchy's cumulative activity counters. The suite diffs two
// snapshots around an experiment and attaches the delta to the
// experiment's finished event — observability that never touches the
// results database, so the byte-identity guarantees are unaffected.
func (m *Machine) SimStats() map[string]int64 {
	st := m.mem.Stats()
	sim := map[string]int64{
		"mem_accesses":   st.MemAccesses,
		"tlb_misses":     st.TLBMisses,
		"writebacks":     st.Writebacks,
		"mru_hits":       st.MRUHits,
		"index_hits":     st.IndexHits,
		"passes_skipped": st.PassesSkipped,
	}
	for i, h := range st.Hits {
		sim[fmt.Sprintf("l%d_hits", i+1)] = h
	}
	return sim
}

// Clone implements core.Cloner by rebuilding the profile from scratch
// on the original's DRAM timing, which it does not derive again.
// BuildWith is deterministic, so the clone allocates the same simulated
// addresses in the same order and charges the same costs as the
// original would from its pristine state — exactly the state the suite
// establishes (via Reset) before every experiment. The suite's unit
// pool (DESIGN.md §6d) runs experiment groups and sweep points on such
// clones and relies on this for results byte-identical to a serial run.
func (m *Machine) Clone() (core.Machine, error) {
	return BuildWith(m.profile, m.mem.Config().DRAM)
}

// Name returns the profile name.
func (m *Machine) Name() string { return m.profile.Name }

// Clock returns the machine's virtual clock.
func (m *Machine) Clock() timing.Clock { return m.clk }

// Profile returns the source profile.
func (m *Machine) Profile() Profile { return m.profile }

// Hierarchy exposes the underlying memory hierarchy (for analysis and
// ablation tools).
func (m *Machine) Hierarchy() *simmem.Hierarchy { return m.mem }

// Mem implements core.Machine.
func (m *Machine) Mem() core.MemOps { return m.memOps }

// OS implements core.Machine.
func (m *Machine) OS() core.OSOps { return m.osOps }

// Net implements core.Machine.
func (m *Machine) Net() core.NetOps { return m.netOps }

// FS implements core.Machine.
func (m *Machine) FS() core.FSOps { return m.fsOps }

// Disk implements core.Machine.
func (m *Machine) Disk() core.DiskOps {
	if m.diskOps == nil {
		return nil
	}
	return m.diskOps
}

// DiskIO returns an io.ReaderAt/io.WriterAt adapter over the simulated
// disk (for the lmdd engine), or nil when the profile has none.
func (m *Machine) DiskIO() *simdisk.IO {
	if m.diskOps == nil {
		return nil
	}
	return m.disk.IO()
}

// region is the simulated Region handle.
type region struct {
	base uint64
	size int64
}

type memOps struct {
	m          *Machine
	streamArr  [3]uint64
	streamSize int64
}

var _ core.MemOps = (*memOps)(nil)

func (mo *memOps) Alloc(size int64) (core.Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("machines: non-positive allocation")
	}
	return &region{base: mo.m.mem.Alloc(size), size: size}, nil
}

func checkRegion(r core.Region, n int64) (*region, error) {
	rr, ok := r.(*region)
	if !ok || rr == nil {
		return nil, fmt.Errorf("machines: foreign region handle")
	}
	if n < 0 || n > rr.size {
		return nil, fmt.Errorf("machines: access of %d bytes outside region of %d", n, rr.size)
	}
	return rr, nil
}

func (mo *memOps) Copy(dst, src core.Region, n int64) error {
	d, err := checkRegion(dst, n)
	if err != nil {
		return err
	}
	s, err := checkRegion(src, n)
	if err != nil {
		return err
	}
	mo.m.mem.StreamCopyMode(s.base, d.base, n, mo.m.profile.LibcCopyHW)
	return nil
}

func (mo *memOps) CopyUnrolled(dst, src core.Region, n int64) error {
	d, err := checkRegion(dst, n)
	if err != nil {
		return err
	}
	s, err := checkRegion(src, n)
	if err != nil {
		return err
	}
	mo.m.mem.StreamCopyMode(s.base, d.base, n, false)
	return nil
}

func (mo *memOps) ReadSum(r core.Region, n int64) error {
	rr, err := checkRegion(r, n)
	if err != nil {
		return err
	}
	mo.m.mem.StreamRead(rr.base, n)
	return nil
}

func (mo *memOps) Write(r core.Region, n int64) error {
	rr, err := checkRegion(r, n)
	if err != nil {
		return err
	}
	mo.m.mem.StreamWrite(rr.base, n)
	return nil
}

type chase struct {
	c *simmem.Chase
}

func (c *chase) Walk(n int64) error { c.c.Walk(n); return nil }
func (c *chase) Length() int64      { return c.c.Length() }

func (mo *memOps) NewChase(r core.Region, size, stride int64) (core.Chase, error) {
	rr, err := checkRegion(r, size)
	if err != nil {
		return nil, err
	}
	return &chase{c: mo.m.mem.NewChase(rr.base, size, stride)}, nil
}

func (mo *memOps) LoadOverheadNS() float64 {
	return mo.m.mem.LoadInstTime().Nanoseconds()
}

func (mo *memOps) FlushCaches() error {
	mo.m.mem.FlushAll()
	return nil
}

// variantChase dispatches a chase to its workload variant.
type variantChase struct {
	c *simmem.Chase
	v core.ChaseVariant
}

func (vc *variantChase) Walk(n int64) error {
	switch vc.v {
	case core.ChaseDirty:
		vc.c.WalkDirty(n)
	case core.ChaseWrite:
		vc.c.WalkWrite(n)
	default:
		vc.c.Walk(n)
	}
	return nil
}

func (vc *variantChase) Length() int64 { return vc.c.Length() }

// NewChaseVariant implements core.MemOps.
func (mo *memOps) NewChaseVariant(r core.Region, size, stride int64, v core.ChaseVariant) (core.Chase, error) {
	rr, err := checkRegion(r, size)
	if err != nil {
		return nil, err
	}
	return &variantChase{c: mo.m.mem.NewChase(rr.base, size, stride), v: v}, nil
}

// pageChase adapts simmem.PageChase to core.Chase.
type pageChase struct {
	p *simmem.PageChase
}

func (pc *pageChase) Walk(n int64) error { pc.p.Walk(n); return nil }
func (pc *pageChase) Length() int64      { return pc.p.Length() }

// NewPageChase implements core.MemOps: one line per randomly placed
// page.
func (mo *memOps) NewPageChase(pages int) (core.Chase, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("machines: page chase needs pages")
	}
	pp := mo.m.mem.AllocPages(pages, mo.m.mem.PageSize(), mo.m.pageRNG)
	return &pageChase{p: mo.m.mem.NewPageChase(pp)}, nil
}

// PageSize implements core.MemOps.
func (mo *memOps) PageSize() int64 { return mo.m.mem.PageSize() }

// RunStreamKernel implements core.MemOps over three lazily grown
// simulated arrays.
func (mo *memOps) RunStreamKernel(k core.StreamKind, bytes int64) error {
	if bytes <= 0 {
		return fmt.Errorf("machines: stream kernel needs positive size")
	}
	if bytes > mo.streamSize {
		for i := range mo.streamArr {
			mo.streamArr[i] = mo.m.mem.Alloc(bytes)
		}
		mo.streamSize = bytes
	}
	a, bArr, c := mo.streamArr[0], mo.streamArr[1], mo.streamArr[2]
	switch k {
	case core.StreamCopy:
		mo.m.mem.StreamKernel(a, []uint64{bArr}, bytes, 2)
	case core.StreamScale:
		mo.m.mem.StreamKernel(a, []uint64{bArr}, bytes, 3)
	case core.StreamAdd:
		mo.m.mem.StreamKernel(a, []uint64{bArr, c}, bytes, 4)
	case core.StreamTriad:
		mo.m.mem.StreamKernel(a, []uint64{bArr, c}, bytes, 5)
	default:
		return fmt.Errorf("machines: unknown stream kernel %v", k)
	}
	return nil
}

type osOps struct {
	m   *Machine
	smp *simsmp.System
	pp  uint64 // ping-pong line address
	vm  *simos.VM
}

// ensureSMP lazily builds the coherence model for MP profiles.
func (oo *osOps) ensureSMP() (*simsmp.System, error) {
	p := oo.m.profile
	if !p.Multi {
		return nil, fmt.Errorf("machines: %s is a uniprocessor: %w", p.Name, core.ErrUnsupported)
	}
	if oo.smp == nil {
		c2c := p.C2CNS
		if c2c <= 0 {
			// 1995 snoopy buses: dirty-miss service somewhat slower
			// than a straight memory fill.
			c2c = p.MemLatNS * 1.3
		}
		line := 32
		hit := 10.0
		if len(p.Caches) > 0 {
			line = p.Caches[0].LineSize
			hit = p.Caches[0].LatencyNS
		}
		oo.smp = simsmp.New(oo.m.clk, simsmp.Config{
			LineSize: line,
			HitNS:    hit,
			C2CNS:    c2c,
			MemNS:    p.MemLatNS,
		})
		oo.pp = oo.m.mem.Alloc(64)
	}
	return oo.smp, nil
}

// CacheToCachePingPong implements core.OSOps; uniprocessors return
// core.ErrUnsupported.
func (oo *osOps) CacheToCachePingPong() error {
	s, err := oo.ensureSMP()
	if err != nil {
		return err
	}
	return s.PingPong(oo.pp)
}

// CacheToCacheTransfer implements core.OSOps.
func (oo *osOps) CacheToCacheTransfer(n int64) error {
	s, err := oo.ensureSMP()
	if err != nil {
		return err
	}
	return s.Transfer(n)
}

// PhysicalMemoryBytes implements core.OSOps: a simulated machine has no
// OS accounting to read, so the §3.1 probe measures its memory through
// TouchPages instead.
func (oo *osOps) PhysicalMemoryBytes() (int64, error) {
	return 0, fmt.Errorf("machines: physical memory: %w", core.ErrUnsupported)
}

// TouchPages implements core.OSOps over the demand-paging model,
// built lazily with the profile's physical memory size.
func (oo *osOps) TouchPages(n int64) error {
	if oo.vm == nil {
		phys := int64(oo.m.profile.PhysMB) << 20
		if phys <= 0 {
			phys = 64 << 20
		}
		vm, err := oo.m.os.NewVM(phys, oo.m.mem.PageSize(), oo.m.disk)
		if err != nil {
			return err
		}
		oo.vm = vm
	}
	oo.vm.TouchPages(n)
	return nil
}

// ProbePageBytes implements core.OSOps.
func (oo *osOps) ProbePageBytes() int64 { return oo.m.mem.PageSize() }

var _ core.OSOps = (*osOps)(nil)

func (oo *osOps) NullWrite() error     { oo.m.os.Syscall(); return nil }
func (oo *osOps) SignalInstall() error { oo.m.os.SignalInstall(); return nil }
func (oo *osOps) SignalCatch() error   { return oo.m.os.SignalCatch() }
func (oo *osOps) ForkExit() error      { oo.m.os.ForkExit(); return nil }
func (oo *osOps) ForkExecExit() error  { oo.m.os.ForkExecExit(); return nil }
func (oo *osOps) ForkShExit() error    { oo.m.os.ForkShExit(); return nil }

type ring struct {
	r *simos.Ring
}

// Pass circulates the token once around the ring (core.Ring contract):
// one simulated hop per process.
func (r *ring) Pass() error {
	for i := 0; i < r.r.Procs(); i++ {
		r.r.Pass()
	}
	return nil
}
func (r *ring) Procs() int   { return r.r.Procs() }
func (r *ring) Close() error { return nil }

func (oo *osOps) NewRing(nprocs int, footprint int64) (core.Ring, error) {
	rr, err := oo.m.os.NewRing(nprocs, footprint)
	if err != nil {
		return nil, err
	}
	rr.Warm()
	return &ring{r: rr}, nil
}

type netOps struct {
	m *Machine

	pipe     *simos.Pipe
	src, dst uint64
	bufSize  int64
	tokA     uint64
	tokB     uint64
}

var _ core.NetOps = (*netOps)(nil)

func newNetOps(m *Machine) *netOps {
	const buf = 8 << 20
	return &netOps{
		m:       m,
		pipe:    m.os.NewPipe(),
		src:     m.mem.Alloc(buf),
		dst:     m.mem.Alloc(buf),
		bufSize: buf,
		tokA:    m.mem.Alloc(64),
		tokB:    m.mem.Alloc(64),
	}
}

func (no *netOps) checkSize(n int64) error {
	if n <= 0 || n > no.bufSize {
		return fmt.Errorf("machines: transfer size %d outside (0, %d]", n, no.bufSize)
	}
	return nil
}

func (no *netOps) PipeTransfer(n int64) error {
	if err := no.checkSize(n); err != nil {
		return err
	}
	return no.pipe.Transfer(no.src, no.dst, n)
}

func (no *netOps) PipeRoundTrip() error {
	no.pipe.TokenRoundTrip(no.tokA, no.tokB)
	return nil
}

func (no *netOps) TCPTransfer(n int64) error {
	if err := no.checkSize(n); err != nil {
		return err
	}
	return no.m.net.TCPSendLocal(no.src, no.dst, n)
}

func (no *netOps) TCPRoundTrip() error    { no.m.net.TCPRoundTripLocal(); return nil }
func (no *netOps) UDPRoundTrip() error    { no.m.net.UDPRoundTripLocal(); return nil }
func (no *netOps) RPCTCPRoundTrip() error { no.m.net.RPCTCPRoundTripLocal(); return nil }
func (no *netOps) RPCUDPRoundTrip() error { no.m.net.RPCUDPRoundTripLocal(); return nil }
func (no *netOps) TCPConnect() error      { no.m.net.TCPConnectLocal(); return nil }

func (no *netOps) medium(name string) (simnet.Medium, error) {
	for _, m := range no.m.profile.Media {
		if m.Name == name {
			return m, nil
		}
	}
	return simnet.Medium{}, fmt.Errorf("machines: medium %q: %w", name, core.ErrUnsupported)
}

func (no *netOps) RemoteTCPTransfer(medium string, n int64) error {
	m, err := no.medium(medium)
	if err != nil {
		return err
	}
	if err := no.checkSize(n); err != nil {
		return err
	}
	return no.m.net.TCPSendRemote(m, no.src, n)
}

func (no *netOps) RemoteRoundTrip(medium string, udp bool) error {
	m, err := no.medium(medium)
	if err != nil {
		return err
	}
	no.m.net.RoundTripRemote(m, udp)
	return nil
}

func (no *netOps) Media() []string {
	var out []string
	for _, m := range no.m.profile.Media {
		out = append(out, m.Name)
	}
	return out
}

type fsOps struct {
	m       *Machine
	userBuf uint64
	created map[string]bool
}

var _ core.FSOps = (*fsOps)(nil)

func newFSOps(m *Machine) *fsOps {
	return &fsOps{
		m:       m,
		userBuf: m.mem.Alloc(64 << 10),
		created: make(map[string]bool),
	}
}

func (fo *fsOps) Create(name string) error {
	if err := fo.m.fs.Create(name); err != nil {
		return err
	}
	fo.created[name] = true
	return nil
}

func (fo *fsOps) Delete(name string) error {
	if err := fo.m.fs.Delete(name); err != nil {
		return err
	}
	delete(fo.created, name)
	return nil
}

func (fo *fsOps) WriteFile(name string, size int64) error {
	if err := fo.m.fs.WriteFile(name, size); err != nil {
		return err
	}
	fo.created[name] = true
	return nil
}

func (fo *fsOps) ReadCached(name string, off, n int64) error {
	return fo.m.fs.ReadCached(name, fo.userBuf, off, n)
}

func (fo *fsOps) MmapRead(name string, off, n int64) error {
	return fo.m.fs.MmapRead(name, off, n)
}

func (fo *fsOps) Cleanup() error {
	for name := range fo.created {
		if err := fo.m.fs.Delete(name); err != nil {
			return err
		}
		delete(fo.created, name)
	}
	return nil
}

type diskOps struct {
	m   *Machine
	pos int64
}

var _ core.DiskOps = (*diskOps)(nil)

func (do *diskOps) SeqRead512() error {
	if do.pos+512 > do.m.disk.Size() {
		do.pos = 0
	}
	if err := do.m.disk.Read(do.pos, 512); err != nil {
		return err
	}
	do.pos += 512
	return nil
}

func (do *diskOps) Reset() error {
	do.pos = 0
	return nil
}
