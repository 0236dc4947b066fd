package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/results"
	"repro/internal/timing"
)

// loop wraps a single-op primitive into a BenchLoop body.
func loop(op func() error) func(n int64) error {
	return func(n int64) error {
		for i := int64(0); i < n; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	}
}

// LatSyscall is §6.3 / Table 7: one nontrivial kernel entry, measured
// "by repeatedly writing one word to /dev/null".
func LatSyscall(ctx context.Context, m Machine, opts Options) ([]results.Entry, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(m.OS().NullWrite))
	if err != nil {
		return nil, fmt.Errorf("lat_syscall: %w", err)
	}
	return []results.Entry{entry(m, "lat_syscall", "us", meas.PerOpUS(), nil)}, nil
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
	install, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(os.SignalInstall))
	if err != nil {
		return nil, fmt.Errorf("lat_sig.install: %w", err)
	}
	// Ensure a handler is in place before dispatch timing.
	if err := os.SignalInstall(); err != nil {
		return nil, err
	}
	catch, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(os.SignalCatch))
	if err != nil {
		return nil, fmt.Errorf("lat_sig.catch: %w", err)
	}
	return []results.Entry{
		entry(m, "lat_sig.install", "us", install.PerOpUS(), nil),
		entry(m, "lat_sig.catch", "us", catch.PerOpUS(), nil),
	}, nil
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
	cases := []struct {
		name string
		op   func() error
	}{
		{"lat_proc.fork", os.ForkExit},
		{"lat_proc.exec", os.ForkExecExit},
		{"lat_proc.sh", os.ForkShExit},
	}
	var out []results.Entry
	for _, c := range cases {
		meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(c.op))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out = append(out, entry(m, c.name, "ms", meas.PerOp.Milliseconds(), nil))
	}
	return out, nil
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
	cases := []struct {
		name string
		op   func() error
	}{
		{"lat_pipe", net.PipeRoundTrip},
		{"lat_tcp", net.TCPRoundTrip},
		{"lat_udp", net.UDPRoundTrip},
		{"lat_rpc_tcp", net.RPCTCPRoundTrip},
		{"lat_rpc_udp", net.RPCUDPRoundTrip},
	}
	var out []results.Entry
	for _, c := range cases {
		meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(c.op))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out = append(out, entry(m, c.name, "us", meas.PerOpUS(), nil))
	}
	return out, nil
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
	var out []results.Entry
	for _, med := range net.Media() {
		for _, udp := range []bool{false, true} {
			proto := "tcp"
			if udp {
				proto = "udp"
			}
			meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(func() error {
				return net.RemoteRoundTrip(med, udp)
			}))
			if err != nil {
				return nil, fmt.Errorf("lat_net_remote.%s.%s: %w", med, proto, err)
			}
			out = append(out, entry(m, "lat_net_remote."+med+"."+proto, "us",
				meas.PerOpUS(), map[string]string{"medium": med, "proto": proto}))
		}
	}
	return out, nil
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
	meas, err := timing.BenchLoopCtx(ctx, m.Clock(), opts.Timing, loop(disk.SeqRead512))
	if err != nil {
		return nil, fmt.Errorf("lat_disk: %w", err)
	}
	return []results.Entry{entry(m, "lat_disk.scsi_overhead", "us", meas.PerOpUS(), nil)}, nil
}

// IsUnsupported reports whether err is (or wraps) ErrUnsupported.
func IsUnsupported(err error) bool { return errors.Is(err, ErrUnsupported) }
