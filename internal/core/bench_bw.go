package core

import (
	"context"
	"fmt"

	"repro/internal/results"
)

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
	return measure(ctx, m, opts,
		row{"bw_mem.bcopy_libc", "MB/s", size, attrs, func() error { return mem.Copy(dst, src, size) }},
		row{"bw_mem.bcopy_unrolled", "MB/s", size, attrs, func() error { return mem.CopyUnrolled(dst, src, size) }},
		row{"bw_mem.read", "MB/s", size, attrs, func() error { return mem.ReadSum(src, size) }},
		row{"bw_mem.write", "MB/s", size, attrs, func() error { return mem.Write(dst, size) }},
	)
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
	pipe, tcp := opts.PipeBytes, opts.TCPBytes
	return measure(ctx, m, opts,
		row{"bw_ipc.pipe", "MB/s", pipe, map[string]string{"chunk": fmt.Sprint(pipe)}, func() error { return net.PipeTransfer(pipe) }},
		row{"bw_ipc.tcp", "MB/s", tcp, map[string]string{"chunk": fmt.Sprint(tcp)}, func() error { return net.TCPTransfer(tcp) }},
	)
}

// BWRemoteTCP is Table 4: TCP bandwidth over real media. Backends
// without remote media (the host) contribute nothing.
func BWRemoteTCP(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	net := m.Net()
	var rows []row
	for _, med := range net.Media() {
		rows = append(rows, row{"bw_tcp_remote." + med, "MB/s", opts.TCPBytes, map[string]string{"medium": med},
			func() error { return net.RemoteTCPTransfer(med, opts.TCPBytes) }})
	}
	return measure(ctx, m, opts, rows...)
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
	size := opts.FileSize
	if err := fs.WriteFile(name, size); err != nil {
		return nil, err
	}
	defer func() { _ = fs.Cleanup() }()
	attrs := map[string]string{"size": fmt.Sprint(size)}
	return measure(ctx, m, opts,
		row{"bw_file.read", "MB/s", size, attrs, func() error { return fs.ReadCached(name, 0, size) }},
		row{"bw_file.mmap", "MB/s", size, attrs, func() error { return fs.MmapRead(name, 0, size) }},
	)
}
