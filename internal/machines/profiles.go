package machines

import (
	"encoding/json"
	"fmt"
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

// Build assembles a runnable simulated machine from the profile: it
// derives the profile's DRAM timing (DRAM) and assembles the machine on
// it (BuildWith).
func Build(p Profile) (*Machine, error) {
	dram, err := DRAM(p)
	if err != nil {
		return nil, err
	}
	return BuildWith(p, dram)
}

// DRAM derives the DRAM timing Build gives p's machine from p's Table-2
// bandwidth targets, after checking p and applying Build's defaults
// (the defaulted issue width prices the streams; see invertDRAM). It is
// a pure function of the profile, so a process that derived it can
// ship it to another, which assembles the machine with BuildWith and
// simulates no DRAM stream: what a fleet coordinator does for its
// workers.
func DRAM(p Profile) (simmem.DRAMConfig, error) {
	p, err := withDefaults(p)
	if err != nil {
		return simmem.DRAMConfig{}, err
	}
	line := p.Caches[0].LineSize
	if line <= 0 {
		line = 32
	}
	dram, err := invertDRAM(p, line)
	if err != nil {
		return simmem.DRAMConfig{}, fmt.Errorf("machines: %s: %w", p.Name, err)
	}
	return dram, nil
}

// withDefaults refuses a profile Build cannot assemble and fills in
// Build's defaults.
func withDefaults(p Profile) (Profile, error) {
	if p.Name == "" {
		return p, fmt.Errorf("machines: profile needs a name")
	}
	if p.MHz <= 0 {
		return p, fmt.Errorf("machines: %s: needs a clock rate", p.Name)
	}
	if len(p.Caches) == 0 {
		return p, fmt.Errorf("machines: %s: needs at least one cache level", p.Name)
	}
	if p.IssueWidth <= 0 {
		p.IssueWidth = 2
	}
	if p.DriverUS <= 0 {
		p.DriverUS = 15
	}
	return p, nil
}

// BuildWith assembles p's machine on the DRAM timing dram, which
// simmem.New checks. With dram = DRAM(p) it builds exactly Build(p)'s
// machine, without deriving the timing again.
func BuildWith(p Profile, dram simmem.DRAMConfig) (*Machine, error) {
	p, err := withDefaults(p)
	if err != nil {
		return nil, err
	}
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: p.MHz, IssueWidth: p.IssueWidth})
	mem, err := simmem.New(cpu, simmem.Config{Caches: p.Caches, DRAM: dram, TLB: p.TLB})
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

// invertDRAM derives DRAM timing from the Table-2 bandwidth targets:
// it bisects FillNS until a 1 MB read stream through a cold scratch
// copy of the caches measures the read target, then WritebackNS until a
// 1 MB write stream after dirty priming measures the write target.
// Streaming cost depends on the whole hierarchy (larger lower-level
// lines convert some chunk misses into lower-level hits), so the two
// streams are simulated; but a stream's DRAM fills and writebacks do
// not depend on DRAM timing, so each is simulated once per geometry and
// every candidate timing is priced from it, bit for bit what simulating
// the candidate would measure (DESIGN.md §6e). p is as Build defaulted
// it, with a positive issue width.
func invertDRAM(p Profile, line int) (simmem.DRAMConfig, error) {
	cfg := simmem.DRAMConfig{LatencyNS: p.MemLatNS}
	if cfg.LatencyNS <= 0 {
		cfg.LatencyNS = 300
	}
	naive := float64(line) / (1 << 20) * 1e9 // ns per line at 1 MB/s
	if p.ReadBW > 0 {
		read, err := streamPrice(p, false)
		if err != nil {
			return cfg, err
		}
		cfg.FillNS = bisect(1e-3, 4*naive/p.ReadBW+200, func(f float64) float64 {
			c := cfg
			c.FillNS = f
			c.WritebackNS = 1
			return -streamBW(read.At(c)) // decreasing in f
		}, -p.ReadBW)
	}
	cfg.WritebackNS = 1
	if p.WriteBW > 0 {
		write, err := streamPrice(p, true)
		if err != nil {
			return cfg, err
		}
		cfg.WritebackNS = bisect(1e-3, 8*naive/p.WriteBW+200, func(w float64) float64 {
			c := cfg
			c.WritebackNS = w
			return -streamBW(write.At(c))
		}, -p.WriteBW)
		if cfg.WritebackNS < 1 {
			// Machines like the Power2 write faster than they read
			// (store gathering, wide buses); the write-allocate model
			// cannot express that, so clamp and note the divergence.
			cfg.WritebackNS = 1
		}
	}
	return cfg, nil
}

// streamSpan is the length of the timed stream: 1 MB.
const streamSpan = 1 << 20

// streamBW converts the timed stream's duration into MB/s.
func streamBW(d ptime.Duration) float64 { return float64(streamSpan) / (1 << 20) / d.Seconds() }

// pricedStream is one memoized stream simulation.
type pricedStream struct {
	once  sync.Once
	price simmem.StreamPrice
	err   error
}

// streamPrices memoizes stream simulations per process, keyed on
// exactly what they read: the direction, clock, issue width and caches.
// A renamed twin, or a calibrate candidate that moves only a bandwidth
// or the DRAM latency, reuses them.
var streamPrices sync.Map // key -> *pricedStream

// streamPrice returns the price of p's timed read or write stream,
// simulating it on the first call for p's geometry in this process.
func streamPrice(p Profile, write bool) (simmem.StreamPrice, error) {
	key := fmt.Sprintf("%t|%g|%d|%v", write, p.MHz, p.IssueWidth, p.Caches)
	v, _ := streamPrices.LoadOrStore(key, new(pricedStream))
	s := v.(*pricedStream)
	s.once.Do(func() { s.price, s.err = simulateStream(p, write) })
	return s.price, s.err
}

// simulateStream prices the timed stream on a scratch copy of p's
// caches: a read from cold, or a write after priming every cache level
// with dirty lines so that the stream evicts at steady state. The
// priming is a PriceStream too: it runs once, so a memoized pass would
// only record marks no later pass compares. The scratch hierarchy's own
// DRAM timing reaches no price (PriceStream takes it out again), so any
// timing simmem.New accepts will do.
func simulateStream(p Profile, write bool) (simmem.StreamPrice, error) {
	cpu := sim.NewCPU(&sim.Clock{}, sim.CPUConfig{MHz: p.MHz, IssueWidth: p.IssueWidth})
	h, err := simmem.New(cpu, simmem.Config{Caches: p.Caches, DRAM: simmem.DRAMConfig{LatencyNS: 1}})
	if err != nil {
		return simmem.StreamPrice{}, err
	}
	var cacheTotal int64
	for _, c := range p.Caches {
		cacheTotal += c.Size
	}
	addr := h.Alloc(cacheTotal + streamSpan)
	if write {
		if _, err := h.PriceStream(addr, cacheTotal, true); err != nil {
			return simmem.StreamPrice{}, err
		}
		addr += uint64(cacheTotal)
	}
	return h.PriceStream(addr, streamSpan, write)
}

// bisect inverts a nondecreasing f over [lo, hi] to target by 26
// halvings.
func bisect(lo, hi float64, f func(float64) float64, target float64) float64 {
	if f(lo) >= target {
		return lo
	}
	if f(hi) <= target {
		return hi
	}
	for i := 0; i < 26; i++ {
		mid := (lo + hi) / 2
		if f(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
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
