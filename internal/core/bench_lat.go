package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/results"
	"repro/internal/timing"
)

// LatSyscall is §6.3 / Table 7: one nontrivial kernel entry, measured
// "by repeatedly writing one word to /dev/null".
func LatSyscall(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	return measure(ctx, m, opts, row{key: "lat_syscall", unit: "us", op: m.OS().NullWrite})
}

// LatSignal is §6.4 / Table 8: signal-handler installation and
// dispatch, "both ... in two separate loops, within the context of one
// process".
func LatSignal(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	os := m.OS()
	install, err := measure(ctx, m, opts, row{key: "lat_sig.install", unit: "us", op: os.SignalInstall})
	if err != nil {
		return nil, err
	}
	// Ensure a handler is in place before dispatch timing.
	if err := os.SignalInstall(); err != nil {
		return nil, err
	}
	catch, err := measure(ctx, m, opts, row{key: "lat_sig.catch", unit: "us", op: os.SignalCatch})
	if err != nil {
		return nil, err
	}
	return append(install, catch...), nil
}

// LatProc is §6.5 / Table 9: the process-creation ladder. These are
// millisecond-scale operations, so the harness needs no inner scaling
// on real machines; the loop still protects against coarse clocks.
func LatProc(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	os := m.OS()
	return measure(ctx, m, opts,
		row{key: "lat_proc.fork", unit: "ms", op: os.ForkExit},
		row{key: "lat_proc.exec", unit: "ms", op: os.ForkExecExit},
		row{key: "lat_proc.sh", unit: "ms", op: os.ForkShExit},
	)
}

// LatIPC covers Tables 11-13: pipe, TCP, UDP and RPC round-trip
// latencies, all "pass a small message back and forth between two
// processes; the reported results are always the microseconds needed
// to do one round trip".
func LatIPC(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	net := m.Net()
	return measure(ctx, m, opts,
		row{key: "lat_pipe", unit: "us", op: net.PipeRoundTrip},
		row{key: "lat_tcp", unit: "us", op: net.TCPRoundTrip},
		row{key: "lat_udp", unit: "us", op: net.UDPRoundTrip},
		row{key: "lat_rpc_tcp", unit: "us", op: net.RPCTCPRoundTrip},
		row{key: "lat_rpc_udp", unit: "us", op: net.RPCUDPRoundTrip},
	)
}

// LatConnect is Table 15: TCP connection establishment. Following the
// paper, "twenty connects are completed and the fastest of them is
// used as the result".
func LatConnect(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	best, err := timing.MinOnce(m.Clock(), 20, m.Net().TCPConnect)
	if err != nil {
		return nil, fmt.Errorf("lat_connect: %w", err)
	}
	return []results.Entry{entry(m, "lat_connect", "us", best.Microseconds(), nil)}, nil
}

// LatRemote is Table 14: round-trip latency over real media, TCP and
// UDP variants.
func LatRemote(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	net := m.Net()
	var rows []row
	for _, med := range net.Media() {
		for _, proto := range []string{"tcp", "udp"} {
			rows = append(rows, row{key: "lat_net_remote." + med + "." + proto, unit: "us",
				attrs: map[string]string{"medium": med, "proto": proto},
				op:    func() error { return net.RemoteRoundTrip(med, proto == "udp") }})
		}
	}
	return measure(ctx, m, opts, rows...)
}

// LatFS is §6.8 / Table 16: create and delete 1000 zero-length files
// with short names in one directory.
func LatFS(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	fs := m.FS()
	n := opts.FSFiles
	names := make([]string, n)
	for i := range names {
		// "their names are short, such as 'a', 'b', 'c', ... 'aa',
		// 'ab', ..."
		names[i] = shortName(i)
	}
	defer func() { _ = fs.Cleanup() }()

	// each times one pass of op over every name and returns the time
	// per file.
	each := func(op func(file string) error) (float64, error) {
		d, err := timing.Once(m.Clock(), func() error {
			for _, f := range names {
				if err := op(f); err != nil {
					return err
				}
			}
			return nil
		})
		return d.DivN(int64(n)).Microseconds(), err
	}
	create, err := each(fs.Create)
	if err != nil {
		return nil, fmt.Errorf("lat_fs.create: %w", err)
	}
	del, err := each(fs.Delete)
	if err != nil {
		return nil, fmt.Errorf("lat_fs.delete: %w", err)
	}
	attrs := map[string]string{"files": fmt.Sprint(n)}
	return []results.Entry{
		entry(m, "lat_fs.create", "us", create, attrs),
		entry(m, "lat_fs.delete", "us", del, attrs),
	}, nil
}

// shortName generates lmbench-style file names a, b, ..., aa, ab, ...
func shortName(i int) string {
	var buf [8]byte
	pos := len(buf)
	for {
		pos--
		buf[pos] = byte('a' + i%26)
		i = i/26 - 1
		if i < 0 {
			break
		}
	}
	return string(buf[pos:])
}

// LatDisk is §6.9 / Table 17: per-command SCSI overhead, measured by
// sequential 512-byte reads served from the drive's track buffer.
func LatDisk(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	disk := m.Disk()
	if disk == nil {
		return nil, fmt.Errorf("lat_disk: %w", ErrUnsupported)
	}
	if err := disk.Reset(); err != nil {
		return nil, err
	}
	// Arm the track buffer so the timed reads measure command overhead.
	if err := disk.SeqRead512(); err != nil {
		return nil, err
	}
	return measure(ctx, m, opts, row{key: "lat_disk.scsi_overhead", unit: "us", op: disk.SeqRead512})
}

// IsUnsupported reports whether err is (or wraps) ErrUnsupported.
func IsUnsupported(err error) bool { return errors.Is(err, ErrUnsupported) }
