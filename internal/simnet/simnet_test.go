package simnet

import (
	"testing"

	"repro/internal/ptime"
	"repro/internal/sim"
	"repro/internal/simmem"
	"repro/internal/simos"
)

type rig struct {
	clk *sim.Clock
	os  *simos.OS
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clk := &sim.Clock{}
	cpu := sim.NewCPU(clk, sim.CPUConfig{MHz: 100, IssueWidth: 4})
	mem, err := simmem.New(cpu, simmem.Config{
		Caches: []simmem.CacheConfig{
			{Name: "L1", Size: 8 << 10, LineSize: 32, Assoc: 2, LatencyNS: 5, FillNS: 5},
			{Name: "L2", Size: 256 << 10, LineSize: 32, Assoc: 4, LatencyNS: 50, FillNS: 40},
		},
		DRAM: simmem.DRAMConfig{LatencyNS: 300, FillNS: 100, WritebackNS: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := simos.New(cpu, mem, simos.Config{SyscallNS: 3000, CtxSwitchNS: 6000})
	return &rig{clk: clk, os: o}
}

func (r *rig) net(cfg Config) *Net { return New(r.os, cfg) }

func baseCfg() Config {
	return Config{
		TCPStackUS:     40,
		UDPStackUS:     60,
		ChecksumMBs:    100,
		DriverUS:       20,
		RPCExtraUS:     200,
		ConnectExtraUS: 100,
	}
}

// TestLoopbackOptimizationClosesTCPPipeGap reproduces the Table 3
// structural claim: with checksum+driver eliminated on loopback, TCP
// bandwidth approaches pipe bandwidth; without, it is measurably lower.
func TestLoopbackOptimizationClosesTCPPipeGap(t *testing.T) {
	const n = 4 << 20
	transferTime := func(optimized bool) ptime.Duration {
		r := newRig(t)
		cfg := baseCfg()
		cfg.LoopbackOptimized = optimized
		nt := r.net(cfg)
		mem := r.os.Mem()
		src := mem.Alloc(n)
		dst := mem.Alloc(n)
		before := r.clk.Now()
		if err := nt.TCPSendLocal(src, dst, n); err != nil {
			t.Fatal(err)
		}
		return r.clk.Now() - before
	}
	pipeTime := func() ptime.Duration {
		// Same 1M buffering as the TCP path so cache residence of the
		// kernel buffer is apples-to-apples.
		r := newRig(t)
		mem := r.os.Mem()
		o := simos.New(mem.CPU(), mem, simos.Config{
			SyscallNS: 3000, CtxSwitchNS: 6000, PipeBufBytes: 1 << 20,
		})
		p := o.NewPipe()
		src := mem.Alloc(n)
		dst := mem.Alloc(n)
		before := r.clk.Now()
		if err := p.Transfer(src, dst, n); err != nil {
			t.Fatal(err)
		}
		return r.clk.Now() - before
	}

	plain := transferTime(false)
	opt := transferTime(true)
	pipe := pipeTime()

	if opt >= plain {
		t.Errorf("optimized loopback (%v) should beat plain (%v)", opt, plain)
	}
	// Optimized TCP within 25% of the pipe; unoptimized at least 30%
	// slower than the pipe (checksum at 100MB/s dominates).
	if ratio := float64(opt) / float64(pipe); ratio > 1.25 {
		t.Errorf("optimized TCP/pipe = %.2f, want <= 1.25", ratio)
	}
	if ratio := float64(plain) / float64(pipe); ratio < 1.3 {
		t.Errorf("plain TCP/pipe = %.2f, want >= 1.3", ratio)
	}
}

func TestSendValidation(t *testing.T) {
	r := newRig(t)
	nt := r.net(baseCfg())
	if err := nt.TCPSendLocal(0, 0, 0); err == nil {
		t.Error("zero-byte TCP send should error")
	}
	if err := nt.TCPSendRemote(Ether10, 0, 0); err == nil {
		t.Error("zero-byte remote send should error")
	}
}

func TestRoundTripOrdering(t *testing.T) {
	measure := func(f func(*Net)) ptime.Duration {
		r := newRig(t)
		nt := r.net(baseCfg())
		before := r.clk.Now()
		f(nt)
		return r.clk.Now() - before
	}
	tcp := measure(func(n *Net) { n.TCPRoundTripLocal() })
	udp := measure(func(n *Net) { n.UDPRoundTripLocal() })
	rpcTCP := measure(func(n *Net) { n.RPCTCPRoundTripLocal() })
	rpcUDP := measure(func(n *Net) { n.RPCUDPRoundTripLocal() })

	if udp <= tcp {
		t.Errorf("UDP RTT (%v) should exceed TCP RTT (%v) with the larger stack cost", udp, tcp)
	}
	if rpcTCP != tcp+200*ptime.Microsecond {
		t.Errorf("RPC/TCP = %v, want TCP + 200us = %v", rpcTCP, tcp+200*ptime.Microsecond)
	}
	if rpcUDP != udp+200*ptime.Microsecond {
		t.Errorf("RPC/UDP = %v, want UDP + 200us", rpcUDP)
	}
	// Structure of the TCP RTT: 4 syscalls (12us) + 4 stack (160us) +
	// 2 ctx (12us) + 2 driver (40us) = 224us.
	want := 224 * ptime.Microsecond
	if tcp != want {
		t.Errorf("TCP RTT = %v, want %v", tcp, want)
	}
}

func TestConnectCost(t *testing.T) {
	r := newRig(t)
	nt := r.net(baseCfg())
	before := r.clk.Now()
	nt.TCPConnectLocal()
	got := r.clk.Now() - before
	// Two handshake one-ways (112us each: 2 syscalls + 2 stack halves +
	// driver + ctx switch) + setup extra (100us) + close syscall (3us).
	want := 327 * ptime.Microsecond
	if got != want {
		t.Errorf("connect = %v, want %v", got, want)
	}
}

func TestRemoteLatencyOrderedByMedium(t *testing.T) {
	rtt := func(m Medium) ptime.Duration {
		r := newRig(t)
		nt := r.net(baseCfg())
		before := r.clk.Now()
		nt.RoundTripRemote(m, false)
		return r.clk.Now() - before
	}
	e10 := rtt(Ether10)
	e100 := rtt(Ether100)
	hip := rtt(Hippi)
	if !(hip < e100 && e100 < e10) {
		t.Errorf("remote RTTs out of order: hippi %v, 100baseT %v, 10baseT %v", hip, e100, e10)
	}
	// The 10baseT round trip includes 130us of wire time.
	if e10-e100 < 100*ptime.Microsecond {
		t.Errorf("10baseT should carry ~104us more wire time than 100baseT: %v vs %v", e10, e100)
	}
}

func TestRemoteBandwidthWireVsSoftwareLimited(t *testing.T) {
	const n = 8 << 20
	bw := func(m Medium, checksumMBs float64) float64 {
		r := newRig(t)
		cfg := baseCfg()
		cfg.ChecksumMBs = checksumMBs
		nt := r.net(cfg)
		src := r.os.Mem().Alloc(n)
		before := r.clk.Now()
		if err := nt.TCPSendRemote(m, src, n); err != nil {
			t.Fatal(err)
		}
		elapsed := r.clk.Now() - before
		return float64(n) / (1 << 20) / elapsed.Seconds()
	}
	// Slow wire, fast software: wire-limited near the medium's rate.
	slow := bw(Ether10, 0)
	if slow > 1.25 || slow < 0.8 {
		t.Errorf("10baseT bandwidth = %.2f MB/s, want ~1.19 (wire-limited)", slow)
	}
	// Fast wire, slow software checksum: software-limited well below
	// the 100MB/s Hippi wire.
	fast := bw(Hippi, 100)
	if fast > 60 {
		t.Errorf("hippi with software checksum = %.2f MB/s, want software-limited (<60)", fast)
	}
	// Hardware checksum on Hippi: much closer to the wire (the SGI
	// result in Table 4).
	hw := bw(Hippi, 0)
	if hw <= fast {
		t.Errorf("hardware checksum (%.2f) should beat software (%.2f)", hw, fast)
	}
}

func TestMediaConstants(t *testing.T) {
	for _, m := range []Medium{Ether10, Ether100, FDDI, Hippi} {
		if m.Name == "" || m.MBs <= 0 || m.LatencyUS <= 0 || m.PacketBytes <= 0 {
			t.Errorf("bad medium %+v", m)
		}
	}
	if FDDI.PacketBytes <= Ether100.PacketBytes {
		t.Error("FDDI packets should be larger than ethernet's")
	}
}

func TestConfigDefaults(t *testing.T) {
	r := newRig(t)
	nt := r.net(Config{})
	cfg := nt.Config()
	if cfg.TCPStackUS != 50 || cfg.UDPStackUS != 50 || cfg.MTU != 1500 || cfg.SocketBufBytes != 1<<20 {
		t.Errorf("defaults = %+v", cfg)
	}
}
