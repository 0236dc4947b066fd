package machines

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/ptime"
	"repro/internal/sim"
	"repro/internal/simdisk"
	"repro/internal/simfs"
	"repro/internal/simmem"
	"repro/internal/simnet"
	"repro/internal/simos"
)

// Profile describes one Table-1 machine in terms of paper-observable
// quantities. Build inverts the simulator's mechanistic cost models to
// find the underlying parameters.
//
// Calibration sources (values transcribed from the paper; the scanned
// text is noisy in places, so some entries are best-effort and recorded
// as such in EXPERIMENTS.md):
//
//	MHz, Year, PriceK, SPECInt92          Table 1
//	Caches (geometry + latencies), MemLatNS  Table 6 / §6.2
//	ReadBW, WriteBW                       Table 2 (read/write columns)
//	SyscallUS                             Table 7
//	SigInstallUS, SigHandlerUS            Table 8
//	ForkMS, ForkExecMS, ForkShMS          Table 9
//	CtxSwitchUS (2 procs / 0K)            Table 10
//	TCPLatUS, RPCTCPLatUS                 Table 12
//	UDPLatUS, RPCUDPLatUS                 Table 13
//	ConnectUS                             Table 15
//	FSCreateUS, FSDeleteUS, FSMode        Table 16
//	DiskOverheadUS                        Table 17
type Profile struct {
	Name    string
	OSName  string
	CPUName string
	Year    int
	PriceK  int
	SPECInt int
	Multi   bool

	MHz        float64
	IssueWidth int

	Caches   []simmem.CacheConfig
	MemLatNS float64
	ReadBW   float64 // MB/s, 2^20 convention
	WriteBW  float64
	TLB      simmem.TLBConfig

	// LibcCopyHW marks machines whose C library bcopy uses hardware
	// assists (SPARC V9 block moves on the Ultra1).
	LibcCopyHW bool

	SyscallUS    float64
	SigInstallUS float64
	SigHandlerUS float64
	ForkMS       float64
	ForkExecMS   float64
	ForkShMS     float64
	CtxSwitchUS  float64

	TCPLatUS    float64
	UDPLatUS    float64
	RPCTCPLatUS float64
	RPCUDPLatUS float64
	ConnectUS   float64
	// DriverUS is the per-packet driver cost (assumed, not in the
	// paper's tables; defaults to 15us).
	DriverUS float64
	// ChecksumMBs is the software checksum rate bounding loopback TCP
	// bandwidth (derived from Table 3 gaps; 0 = hardware assist).
	ChecksumMBs float64
	// LoopbackOptimized marks stacks that skip checksum+driver on
	// loopback (Solaris, HP-UX per §5.2).
	LoopbackOptimized bool
	// Media lists the physical networks this machine was measured on
	// (Tables 4 and 14).
	Media []simnet.Medium

	FSName     string
	FSMode     simfs.Mode
	FSCreateUS float64
	FSDeleteUS float64
	// MmapFaultUS separates good mmap implementations (Unixware) from
	// poor ones (Linux 1.3) in Table 5.
	MmapFaultUS float64

	// C2CNS is the MP cache-to-cache line transfer cost for Multi
	// machines (§7 extension); 0 derives it from MemLatNS.
	C2CNS float64

	// PhysMB is the machine's physical memory for the §3.1 sizing
	// probe (default 64; Table 1 does not list memory, so these are
	// era-plausible figures — the paper notes "Some of the PCs had
	// less than 16M of available memory").
	PhysMB int

	DiskOverheadUS float64
	Disk           simdisk.Config
}

// Build assembles a runnable simulated machine from the profile.
func Build(p Profile) (*Machine, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("machines: profile needs a name")
	}
	if p.MHz <= 0 {
		return nil, fmt.Errorf("machines: %s: needs a clock rate", p.Name)
	}
	if len(p.Caches) == 0 {
		return nil, fmt.Errorf("machines: %s: needs at least one cache level", p.Name)
	}
	if p.IssueWidth <= 0 {
		p.IssueWidth = 2
	}
	if p.DriverUS <= 0 {
		p.DriverUS = 15
	}

	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: p.MHz, IssueWidth: p.IssueWidth})

	line := p.Caches[0].LineSize
	if line <= 0 {
		line = 32
	}
	memCfg := simmem.Config{
		Caches: p.Caches,
		DRAM:   invertDRAM(p, line),
		TLB:    p.TLB,
	}
	mem, err := simmem.New(cpu, memCfg)
	if err != nil {
		return nil, fmt.Errorf("machines: %s: %w", p.Name, err)
	}

	osCfg, err := invertOS(p)
	if err != nil {
		return nil, fmt.Errorf("machines: %s: %w", p.Name, err)
	}
	o := simos.New(cpu, mem, osCfg)

	netCfg := invertNet(p, osCfg)
	nt := simnet.New(o, netCfg)

	diskCfg := p.Disk
	if p.DiskOverheadUS > 0 {
		diskCfg.OverheadUS = p.DiskOverheadUS
	}
	disk := simdisk.New(clk, diskCfg)

	fsCfg, err := invertFS(p, diskCfg)
	if err != nil {
		return nil, fmt.Errorf("machines: %s: %w", p.Name, err)
	}
	fs, err := simfs.New(o, disk, fsCfg)
	if err != nil {
		return nil, fmt.Errorf("machines: %s: %w", p.Name, err)
	}

	m := &Machine{
		profile: p,
		clk:     clk,
		cpu:     cpu,
		mem:     mem,
		os:      o,
		net:     nt,
		fs:      fs,
		disk:    disk,
		pageRNG: rand.New(rand.NewSource(pageSeed)),
	}
	m.memOps = &memOps{m: m}
	m.osOps = &osOps{m: m}
	m.netOps = newNetOps(m)
	m.fsOps = newFSOps(m)
	if p.DiskOverheadUS > 0 {
		m.diskOps = &diskOps{m: m}
	}
	// Everything allocated so far is permanent machine furniture;
	// Reset rewinds the heap to this point.
	m.heapMark = mem.Mark()
	return m, nil
}

// invertDRAM derives DRAM timing from the Table-2 bandwidth targets.
// Because streaming cost depends on the whole hierarchy (larger
// lower-level lines convert some chunk misses into lower-level hits),
// the inversion runs the actual streaming workload on scratch
// hierarchies and inverts FillNS (for the read target) and then
// WritebackNS (for the write target). Each inversion is a threshold
// search (bisect) that returns, bit for bit, what a 26-halving
// bisection of the measured bandwidth returns, from a handful of
// stream measurements instead of 28 (DESIGN.md §6e). Results are
// memoized per process on exactly the inputs calibrateDRAM reads, so
// renamed twins of one machine share an inversion.
func invertDRAM(p Profile, line int) simmem.DRAMConfig {
	key := fmt.Sprintf("%g|%g|%g|%g|%d|%v", p.MHz, p.MemLatNS, p.ReadBW, p.WriteBW, p.IssueWidth, p.Caches)
	if v, ok := dramCache.Load(key); ok {
		return v.(simmem.DRAMConfig)
	}
	cfg := calibrateDRAM(p, line, bisect)
	dramCache.Store(key, cfg)
	return cfg
}

var dramCache sync.Map

// searcher inverts a nondecreasing f to target over [lo, hi]; see
// bisect. calibrateDRAM takes one so that tests can run it with the
// plain bisection bisect reproduces and count its measurements.
type searcher func(lo, hi float64, f func(float64) float64, target float64) float64

func calibrateDRAM(p Profile, line int, search searcher) simmem.DRAMConfig {
	cfg := simmem.DRAMConfig{LatencyNS: p.MemLatNS}
	if cfg.LatencyNS <= 0 {
		cfg.LatencyNS = 300
	}
	naive := float64(line) / (1 << 20) * 1e9 // ns per line at 1 MB/s
	if p.ReadBW > 0 {
		cfg.FillNS = search(1e-3, 4*naive/p.ReadBW+200, func(f float64) float64 {
			c := cfg
			c.FillNS = f
			c.WritebackNS = 1
			return -measureStreamBW(p, c, false) // decreasing in f
		}, -p.ReadBW)
	}
	cfg.WritebackNS = 1
	if p.WriteBW > 0 {
		cfg.WritebackNS = search(1e-3, 8*naive/p.WriteBW+200, func(w float64) float64 {
			c := cfg
			c.WritebackNS = w
			return -measureStreamBW(p, c, true)
		}, -p.WriteBW)
		if cfg.WritebackNS < 1 {
			// Machines like the Power2 write faster than they read
			// (store gathering, wide buses); the write-allocate model
			// cannot express that, so clamp and note the divergence.
			cfg.WritebackNS = 1
		}
	}
	return cfg
}

// measureStreamBW builds a scratch hierarchy with the candidate DRAM
// timing and measures steady-state streaming bandwidth in MB/s.
func measureStreamBW(p Profile, dram simmem.DRAMConfig, write bool) float64 {
	clk := &sim.Clock{}
	width := p.IssueWidth
	if width <= 0 {
		width = 2
	}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: p.MHz, IssueWidth: width})
	h, err := simmem.New(cpu, simmem.Config{Caches: p.Caches, DRAM: dram})
	if err != nil {
		return 0
	}
	var cacheTotal int64
	for _, c := range p.Caches {
		cacheTotal += c.Size
	}
	const span = 1 << 20
	base := h.Alloc(cacheTotal + span)
	if write {
		// Prime the caches with dirty data so the timed span evicts
		// at steady state.
		h.StreamWrite(base, cacheTotal)
		start := clk.Now()
		h.StreamWrite(base+uint64(cacheTotal), span)
		return float64(span) / (1 << 20) / (clk.Now() - start).Seconds()
	}
	start := clk.Now()
	h.StreamRead(base, span)
	return float64(span) / (1 << 20) / (clk.Now() - start).Seconds()
}

const (
	// halvings is the number of bisection steps bisect reproduces.
	halvings = 26
	// secantGuesses caps bisect's secant phase. It measures the upper
	// end's neighbour and at most two points per guess, so a call
	// measures at most 2 + 1 + 2*secantGuesses + halvings = 33 times,
	// against the plain bisection's 28.
	secantGuesses = 2
)

// bisect returns, bit for bit, what this plain bisection returns:
//
//	if f(lo) >= target { return lo }
//	if f(hi) <= target { return hi }
//	26 times: mid := (lo+hi)/2; if f(mid) < target { lo = mid } else { hi = mid }
//	return (lo+hi)/2
//
// provided f is nondecreasing and depends on x only through
// ptime.FromNS(x), as every simulated measurement does: a candidate
// timing reaches simmem only as whole picoseconds. Then each halving's
// test f(mid) < target is FromNS(mid) < q*, where q* is the least
// picosecond count at which f reaches target, so bisect first closes
// in on q* with secant guesses and then replays the halvings,
// measuring only the tests that the picosecond counts measured so far
// leave undecided (DESIGN.md §6e).
func bisect(lo, hi float64, f func(float64) float64, target float64) float64 {
	if f(lo) >= target {
		return lo
	}
	fhi := f(hi)
	if fhi <= target {
		return hi
	}
	t := threshold{f: f, target: target, below: ptime.FromNS(lo), above: ptime.FromNS(hi), fAbove: fhi}
	// The upper end's neighbouring picosecond gives the first secant
	// its second point. Each guess is checked against its neighbour
	// too, so an exact guess closes the bracket to (q*-1, q*].
	t.less((t.above - 1).Nanoseconds())
	for i := 0; i < secantGuesses && t.above-t.below > 1; i++ {
		g := t.guess()
		if t.less(g.Nanoseconds()) {
			t.less((g + 1).Nanoseconds())
		} else {
			t.less((g - 1).Nanoseconds())
		}
	}
	for i := 0; i < halvings; i++ {
		mid := (lo + hi) / 2
		if t.less(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// threshold brackets q*, the least picosecond count at which f reaches
// target: below < q* <= above. It keeps f at the two lowest points
// measured on the upper side, above and next.
type threshold struct {
	f             func(float64) float64
	target        float64
	below, above  ptime.Duration
	next          ptime.Duration
	fAbove, fNext float64
}

// less reports f(x) < target. It measures f only when FromNS(x) lies
// strictly inside the bracket, and then narrows the bracket to it.
func (t *threshold) less(x float64) bool {
	q := ptime.FromNS(x)
	if q <= t.below {
		return true
	}
	if q >= t.above {
		return false
	}
	y := t.f(x)
	if y < t.target {
		t.below = q
		return true
	}
	t.next, t.fNext = t.above, t.fAbove
	t.above, t.fAbove = q, y
	return false
}

// guess estimates q* by the secant on 1/f through the two lowest points
// measured on the upper side, as a picosecond count strictly inside the
// bracket (which must be at least 2 wide). For a stream measurement 1/f
// is affine in the picoseconds there (the stream's duration is: a read
// stream's fills hide behind instruction issue only below q*), so the
// guess is q* up to float rounding; a secant that rounds to the upper
// end itself guesses its neighbour. For any other f it is only a guess,
// and one that misses the bracket below, or has no root, falls back to
// the bracket's middle.
func (t *threshold) guess() ptime.Duration {
	a, n := float64(t.above), float64(t.next)
	ya, yn := 1/t.fAbove, 1/t.fNext
	r := a + (1/t.target-ya)*(n-a)/(yn-ya)
	if !(r > float64(t.below)) || math.IsInf(r, 1) {
		return t.below + (t.above-t.below)/2
	}
	return min(ptime.Duration(math.Ceil(min(r, a))), t.above-1)
}

// invertOS derives kernel cost parameters from the Table 7-10 targets.
func invertOS(p Profile) (simos.Config, error) {
	sysUS := p.SyscallUS
	if sysUS <= 0 {
		sysUS = 5
	}
	ctxUS := p.CtxSwitchUS
	if ctxUS <= 0 {
		ctxUS = 10
	}
	cfg := simos.Config{
		SyscallNS:    sysUS * 1000,
		CtxSwitchNS:  ctxUS * 1000,
		SigInstallNS: p.SigInstallUS * 1000,
		SigHandlerNS: p.SigHandlerUS * 1000,
		ProcPages:    64,
	}
	// Table 9 ladder: fork total = 3 syscalls + page copies + 2 ctx.
	forkNS := p.ForkMS * 1e6
	if forkNS > 0 {
		pagesNS := forkNS - 3*cfg.SyscallNS - 2*cfg.CtxSwitchNS
		if pagesNS < 0 {
			return cfg, fmt.Errorf("fork target %.2fms below syscall+ctx floor", p.ForkMS)
		}
		cfg.PageCopyNS = pagesNS / float64(cfg.ProcPages)
	}
	if p.ForkExecMS > 0 {
		cfg.ExecNS = maxf(0, (p.ForkExecMS-p.ForkMS)*1e6-cfg.SyscallNS)
	}
	if p.ForkShMS > 0 {
		// sh total = one fork + exec(sh) + shell work + exec(prog).
		cfg.ShellNS = maxf(0, p.ForkShMS*1e6-forkNS-2*(cfg.SyscallNS+cfg.ExecNS))
	}
	return cfg, nil
}

// invertNet derives stack costs from the Table 12/13/15 round-trip
// targets given the model RTT = 4 syscalls + 4 stack + 2 ctx
// (+ 2 driver when loopback is not optimized).
func invertNet(p Profile, osCfg simos.Config) simnet.Config {
	cfg := simnet.Config{
		DriverUS:          p.DriverUS,
		ChecksumMBs:       p.ChecksumMBs,
		LoopbackOptimized: p.LoopbackOptimized,
	}
	sysUS := osCfg.SyscallNS / 1000
	ctxUS := osCfg.CtxSwitchNS / 1000
	driver := p.DriverUS
	if p.LoopbackOptimized {
		driver = 0
	}
	fixed := 4*sysUS + 2*ctxUS + 2*driver
	stack := func(rttUS float64) float64 {
		if rttUS <= 0 {
			return 0 // keep package default
		}
		s := (rttUS - fixed) / 4
		if s < 0.5 {
			s = 0.5
		}
		return s
	}
	cfg.TCPStackUS = stack(p.TCPLatUS)
	cfg.UDPStackUS = stack(p.UDPLatUS)
	if p.RPCTCPLatUS > 0 && p.TCPLatUS > 0 {
		cfg.RPCExtraUS = maxf(1, p.RPCTCPLatUS-p.TCPLatUS)
	}
	if p.RPCUDPLatUS > 0 && p.UDPLatUS > 0 {
		cfg.RPCExtraUDPUS = maxf(1, p.RPCUDPLatUS-p.UDPLatUS)
	}
	if p.ConnectUS > 0 {
		// connect = extra + 2 one-ways + close syscall; a one-way is
		// half the model RTT.
		oneway := (4*cfg.TCPStackUS + fixed) / 2
		cfg.ConnectExtraUS = maxf(0, p.ConnectUS-2*oneway-sysUS)
	}
	return cfg
}

// invertFS derives the metadata cost split from the Table 16 targets.
// It instantiates a scratch disk to price one log force and one
// scattered metadata write under this machine's disk parameters.
func invertFS(p Profile, diskCfg simdisk.Config) (simfs.Config, error) {
	cfg := simfs.Config{
		Name:        p.FSName,
		Mode:        p.FSMode,
		MmapFaultUS: p.MmapFaultUS,
	}
	sysUS := p.SyscallUS
	if sysUS <= 0 {
		sysUS = 5
	}
	createUS := p.FSCreateUS
	if createUS <= 0 {
		createUS = 1000
	}
	deleteUS := p.FSDeleteUS
	if deleteUS <= 0 {
		deleteUS = createUS
	}

	switch p.FSMode {
	case simfs.ModeAsync:
		cfg.CreateCPUUS = maxf(1, createUS-sysUS)
		cfg.DeleteCPUUS = maxf(1, deleteUS-sysUS)
	case simfs.ModeLogged:
		logUS := priceLogWrite(diskCfg)
		target := (createUS + deleteUS) / 2
		if target > logUS+sysUS {
			cfg.LogEveryN = 1
			cfg.CreateCPUUS = maxf(1, createUS-logUS-sysUS)
			cfg.DeleteCPUUS = maxf(1, deleteUS-logUS-sysUS)
		} else {
			// Group commit: force the log once every N ops so the
			// averaged per-op cost approaches the target.
			n := int(logUS/maxf(1, target-sysUS-20) + 0.5)
			if n < 1 {
				n = 1
			}
			cfg.LogEveryN = n
			cfg.CreateCPUUS = 20
			cfg.DeleteCPUUS = 20
		}
	case simfs.ModeSync:
		metaUS := priceMetadataWrite(diskCfg)
		writes := func(targetUS float64) int {
			n := int(targetUS/metaUS + 0.5)
			if n < 1 {
				n = 1
			}
			if n > 4 {
				n = 4
			}
			return n
		}
		cfg.SyncWritesPerCreate = writes(createUS)
		cfg.SyncWritesPerDelete = writes(deleteUS)
		cfg.CreateCPUUS = maxf(1, createUS-float64(cfg.SyncWritesPerCreate)*metaUS-sysUS)
		cfg.DeleteCPUUS = maxf(1, deleteUS-float64(cfg.SyncWritesPerDelete)*metaUS-sysUS)
	default:
		return cfg, fmt.Errorf("unknown FS mode %v", p.FSMode)
	}
	return cfg, nil
}

// priceLogWrite measures one log force on a scratch disk.
func priceLogWrite(cfg simdisk.Config) float64 {
	clk := &sim.Clock{}
	d := simdisk.New(clk, cfg)
	d.LogWrite(0)
	return clk.Now().Microseconds()
}

// priceMetadataWrite measures the average scattered metadata write on a
// scratch disk.
func priceMetadataWrite(cfg simdisk.Config) float64 {
	clk := &sim.Clock{}
	d := simdisk.New(clk, cfg)
	const n = 64
	for i := 0; i < n; i++ {
		d.MetadataWrite()
	}
	return clk.Now().Microseconds() / n
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Names returns the sorted names of all built-in profiles.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for _, p := range catalog {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

// ByName returns the built-in profile with the given name.
func ByName(name string) (Profile, bool) {
	for _, p := range catalog {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// All returns all built-in profiles.
func All() []Profile {
	out := make([]Profile, len(catalog))
	copy(out, catalog)
	return out
}

// Fingerprint canonicalizes the profile into a deterministic string
// for content-addressed keying (the unit cache hashes it into each
// work-unit key). Profile contains no maps, so encoding/json emits
// fields in fixed declaration order; Name is part of the struct, so
// two profiles with identical geometry but different names fingerprint
// differently — renaming a catalog entry invalidates its cached units
// rather than aliasing them.
func (p Profile) Fingerprint() (string, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
