package core

import (
	"context"
	"fmt"

	"repro/internal/results"
	"repro/internal/timing"
)

func entry(m Machine, bench, unit string, v float64, attrs map[string]string) results.Entry {
	return results.Entry{Benchmark: bench, Machine: m.Name(), Unit: unit, Scalar: v, Attrs: attrs}
}

// bwOf converts a per-op measurement over `bytes` into MB/s.
func bwOf(meas timing.Measurement, bytes int64) float64 {
	return timing.MBPerSec(bytes, meas.PerOp)
}

// BWMem is §5.1 / Table 2: memory copy (libc and unrolled), read and
// write bandwidth over large regions ("In order to test memory
// bandwidth rather than cache bandwidth, both benchmarks copy an 8M
// area to another 8M area").
func BWMem(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	size := opts.MemSize
	mem := m.Mem()
	src, err := mem.Alloc(size)
	if err != nil {
		return nil, err
	}
	dst, err := mem.Alloc(size)
	if err != nil {
		return nil, err
	}
	attrs := map[string]string{"size": fmt.Sprint(size)}

	var out []results.Entry
	cases := []struct {
		name string
		op   func() error
	}{
		{"bw_mem.bcopy_libc", func() error { return mem.Copy(dst, src, size) }},
		{"bw_mem.bcopy_unrolled", func() error { return mem.CopyUnrolled(dst, src, size) }},
		{"bw_mem.read", func() error { return mem.ReadSum(src, size) }},
		{"bw_mem.write", func() error { return mem.Write(dst, size) }},
	}
	for _, c := range cases {
		meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(c.op))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out = append(out, entry(m, c.name, "MB/s", bwOf(meas, size), attrs))
	}
	return out, nil
}

// BWIPC is §5.2 / Table 3: pipe and loopback-TCP bandwidth. "Pipe
// bandwidth is measured by creating two processes ... which transfer
// 50M of data in 64K transfers"; TCP moves 1M page-aligned transfers
// with 1M socket buffers.
func BWIPC(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	net := m.Net()
	cases := []struct {
		name  string
		bytes int64
		op    func(n int64) error
	}{
		{"bw_ipc.pipe", opts.PipeBytes, net.PipeTransfer},
		{"bw_ipc.tcp", opts.TCPBytes, net.TCPTransfer},
	}
	var out []results.Entry
	for _, c := range cases {
		meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(func() error { return c.op(c.bytes) }))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out = append(out, entry(m, c.name, "MB/s", bwOf(meas, c.bytes),
			map[string]string{"chunk": fmt.Sprint(c.bytes)}))
	}
	return out, nil
}

// BWRemoteTCP is Table 4: TCP bandwidth over real media. Backends
// without remote media (the host) contribute nothing.
func BWRemoteTCP(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	net := m.Net()
	var out []results.Entry
	for _, med := range net.Media() {
		meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(func() error {
			return net.RemoteTCPTransfer(med, opts.TCPBytes)
		}))
		if err != nil {
			return nil, fmt.Errorf("bw_tcp_remote.%s: %w", med, err)
		}
		out = append(out, entry(m, "bw_tcp_remote."+med, "MB/s",
			bwOf(meas, opts.TCPBytes), map[string]string{"medium": med}))
	}
	return out, nil
}

// BWFile is §5.3 / Table 5: cached-file reread through read() and
// mmap. "The benchmark here is not an I/O benchmark in that no disk
// activity is involved. We wanted to measure the overhead of reusing
// data."
func BWFile(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	fs := m.FS()
	const name = "bw_file_reread.dat"
	if err := fs.WriteFile(name, opts.FileSize); err != nil {
		return nil, err
	}
	defer func() { _ = fs.Cleanup() }()

	attrs := map[string]string{"size": fmt.Sprint(opts.FileSize)}
	cases := []struct {
		name string
		op   func(file string, off, n int64) error
	}{
		{"bw_file.read", fs.ReadCached},
		{"bw_file.mmap", fs.MmapRead},
	}
	var out []results.Entry
	for _, c := range cases {
		meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(func() error {
			return c.op(name, 0, opts.FileSize)
		}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out = append(out, entry(m, c.name, "MB/s", bwOf(meas, opts.FileSize), attrs))
	}
	return out, nil
}
