package faults

// The wrapped op groups. Every blocking or measured primitive — the §7
// extension primitives included — routes through Machine.inject under
// a stable dotted name ("net.pipe_rtt", "mem.chase_walk",
// "mem.stream_kernel", ...); pure accessors (Length, Procs, Media,
// LoadOverheadNS, PageSize, ProbePageBytes) and resource teardown
// (Close) pass through untouched so cleanup never fails by injection.

import "repro/internal/core"

type memOps struct {
	f     *Machine
	inner core.MemOps
}

func (m *memOps) Alloc(size int64) (core.Region, error) {
	if err := m.f.inject("mem.alloc"); err != nil {
		return nil, err
	}
	return m.inner.Alloc(size)
}

func (m *memOps) Copy(dst, src core.Region, n int64) error {
	if err := m.f.inject("mem.copy"); err != nil {
		return err
	}
	return m.inner.Copy(dst, src, n)
}

func (m *memOps) CopyUnrolled(dst, src core.Region, n int64) error {
	if err := m.f.inject("mem.copy_unrolled"); err != nil {
		return err
	}
	return m.inner.CopyUnrolled(dst, src, n)
}

func (m *memOps) ReadSum(r core.Region, n int64) error {
	if err := m.f.inject("mem.read_sum"); err != nil {
		return err
	}
	return m.inner.ReadSum(r, n)
}

func (m *memOps) Write(r core.Region, n int64) error {
	if err := m.f.inject("mem.write"); err != nil {
		return err
	}
	return m.inner.Write(r, n)
}

// newChase injects op, then wraps the chase build makes so that its
// walks inject too.
func (m *memOps) newChase(op string, build func() (core.Chase, error)) (core.Chase, error) {
	if err := m.f.inject(op); err != nil {
		return nil, err
	}
	ch, err := build()
	if err != nil {
		return nil, err
	}
	return &chase{f: m.f, inner: ch}, nil
}

func (m *memOps) NewChase(r core.Region, size, stride int64) (core.Chase, error) {
	return m.newChase("mem.new_chase", func() (core.Chase, error) { return m.inner.NewChase(r, size, stride) })
}

func (m *memOps) LoadOverheadNS() float64 { return m.inner.LoadOverheadNS() }

func (m *memOps) FlushCaches() error {
	if err := m.f.inject("mem.flush_caches"); err != nil {
		return err
	}
	return m.inner.FlushCaches()
}

func (m *memOps) NewChaseVariant(r core.Region, size, stride int64, v core.ChaseVariant) (core.Chase, error) {
	return m.newChase("mem.new_chase_variant", func() (core.Chase, error) { return m.inner.NewChaseVariant(r, size, stride, v) })
}

func (m *memOps) NewPageChase(pages int) (core.Chase, error) {
	return m.newChase("mem.new_page_chase", func() (core.Chase, error) { return m.inner.NewPageChase(pages) })
}

func (m *memOps) PageSize() int64 { return m.inner.PageSize() }

func (m *memOps) RunStreamKernel(k core.StreamKind, bytes int64) error {
	if err := m.f.inject("mem.stream_kernel"); err != nil {
		return err
	}
	return m.inner.RunStreamKernel(k, bytes)
}

type chase struct {
	f     *Machine
	inner core.Chase
}

func (c *chase) Walk(n int64) error {
	if err := c.f.inject("mem.chase_walk"); err != nil {
		return err
	}
	return c.inner.Walk(n)
}

func (c *chase) Length() int64 { return c.inner.Length() }

type osOps struct {
	f     *Machine
	inner core.OSOps
}

func (o *osOps) NullWrite() error {
	if err := o.f.inject("os.null_write"); err != nil {
		return err
	}
	return o.inner.NullWrite()
}

func (o *osOps) SignalInstall() error {
	if err := o.f.inject("os.signal_install"); err != nil {
		return err
	}
	return o.inner.SignalInstall()
}

func (o *osOps) SignalCatch() error {
	if err := o.f.inject("os.signal_catch"); err != nil {
		return err
	}
	return o.inner.SignalCatch()
}

func (o *osOps) ForkExit() error {
	if err := o.f.inject("os.fork_exit"); err != nil {
		return err
	}
	return o.inner.ForkExit()
}

func (o *osOps) ForkExecExit() error {
	if err := o.f.inject("os.fork_exec_exit"); err != nil {
		return err
	}
	return o.inner.ForkExecExit()
}

func (o *osOps) ForkShExit() error {
	if err := o.f.inject("os.fork_sh_exit"); err != nil {
		return err
	}
	return o.inner.ForkShExit()
}

func (o *osOps) NewRing(nprocs int, footprint int64) (core.Ring, error) {
	if err := o.f.inject("os.new_ring"); err != nil {
		return nil, err
	}
	r, err := o.inner.NewRing(nprocs, footprint)
	if err != nil {
		return nil, err
	}
	return &ring{f: o.f, inner: r}, nil
}

func (o *osOps) CacheToCachePingPong() error {
	if err := o.f.inject("os.c2c_ping_pong"); err != nil {
		return err
	}
	return o.inner.CacheToCachePingPong()
}

func (o *osOps) CacheToCacheTransfer(n int64) error {
	if err := o.f.inject("os.c2c_transfer"); err != nil {
		return err
	}
	return o.inner.CacheToCacheTransfer(n)
}

func (o *osOps) PhysicalMemoryBytes() (int64, error) {
	if err := o.f.inject("os.physical_memory"); err != nil {
		return 0, err
	}
	return o.inner.PhysicalMemoryBytes()
}

func (o *osOps) TouchPages(n int64) error {
	if err := o.f.inject("os.touch_pages"); err != nil {
		return err
	}
	return o.inner.TouchPages(n)
}

func (o *osOps) ProbePageBytes() int64 { return o.inner.ProbePageBytes() }

type ring struct {
	f     *Machine
	inner core.Ring
}

func (r *ring) Pass() error {
	if err := r.f.inject("os.ring_pass"); err != nil {
		return err
	}
	return r.inner.Pass()
}

func (r *ring) Procs() int   { return r.inner.Procs() }
func (r *ring) Close() error { return r.inner.Close() }

type netOps struct {
	f     *Machine
	inner core.NetOps
}

func (n *netOps) PipeTransfer(b int64) error {
	if err := n.f.inject("net.pipe_bw"); err != nil {
		return err
	}
	return n.inner.PipeTransfer(b)
}

func (n *netOps) PipeRoundTrip() error {
	if err := n.f.inject("net.pipe_rtt"); err != nil {
		return err
	}
	return n.inner.PipeRoundTrip()
}

func (n *netOps) TCPTransfer(b int64) error {
	if err := n.f.inject("net.tcp_bw"); err != nil {
		return err
	}
	return n.inner.TCPTransfer(b)
}

func (n *netOps) TCPRoundTrip() error {
	if err := n.f.inject("net.tcp_rtt"); err != nil {
		return err
	}
	return n.inner.TCPRoundTrip()
}

func (n *netOps) UDPRoundTrip() error {
	if err := n.f.inject("net.udp_rtt"); err != nil {
		return err
	}
	return n.inner.UDPRoundTrip()
}

func (n *netOps) RPCTCPRoundTrip() error {
	if err := n.f.inject("net.rpc_tcp_rtt"); err != nil {
		return err
	}
	return n.inner.RPCTCPRoundTrip()
}

func (n *netOps) RPCUDPRoundTrip() error {
	if err := n.f.inject("net.rpc_udp_rtt"); err != nil {
		return err
	}
	return n.inner.RPCUDPRoundTrip()
}

func (n *netOps) TCPConnect() error {
	if err := n.f.inject("net.tcp_connect"); err != nil {
		return err
	}
	return n.inner.TCPConnect()
}

func (n *netOps) RemoteTCPTransfer(medium string, b int64) error {
	if err := n.f.inject("net.remote_tcp_bw"); err != nil {
		return err
	}
	return n.inner.RemoteTCPTransfer(medium, b)
}

func (n *netOps) RemoteRoundTrip(medium string, udp bool) error {
	if err := n.f.inject("net.remote_rtt"); err != nil {
		return err
	}
	return n.inner.RemoteRoundTrip(medium, udp)
}

func (n *netOps) Media() []string { return n.inner.Media() }

type fsOps struct {
	f     *Machine
	inner core.FSOps
}

func (s *fsOps) Create(name string) error {
	if err := s.f.inject("fs.create"); err != nil {
		return err
	}
	return s.inner.Create(name)
}

func (s *fsOps) Delete(name string) error {
	if err := s.f.inject("fs.delete"); err != nil {
		return err
	}
	return s.inner.Delete(name)
}

func (s *fsOps) WriteFile(name string, size int64) error {
	if err := s.f.inject("fs.write_file"); err != nil {
		return err
	}
	return s.inner.WriteFile(name, size)
}

func (s *fsOps) ReadCached(name string, off, n int64) error {
	if err := s.f.inject("fs.read_cached"); err != nil {
		return err
	}
	return s.inner.ReadCached(name, off, n)
}

func (s *fsOps) MmapRead(name string, off, n int64) error {
	if err := s.f.inject("fs.mmap_read"); err != nil {
		return err
	}
	return s.inner.MmapRead(name, off, n)
}

func (s *fsOps) Cleanup() error { return s.inner.Cleanup() }

type diskOps struct {
	f     *Machine
	inner core.DiskOps
}

func (d *diskOps) SeqRead512() error {
	if err := d.f.inject("disk.seq_read_512"); err != nil {
		return err
	}
	return d.inner.SeqRead512()
}

func (d *diskOps) Reset() error {
	if err := d.f.inject("disk.reset"); err != nil {
		return err
	}
	return d.inner.Reset()
}
