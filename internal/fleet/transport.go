package fleet

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/rpcx"
)

// worker is the coordinator's handle on one worker: a session
// speaking the protocol, and the teardown that ends it hard (kill for
// processes, close for connections), which unblocks any pending Recv.
type worker struct {
	*rpcx.Session
	id    string
	pid   int // the local process's ID, 0 for a remote worker
	close func()
}

// spawnWorker re-executes the current binary as a fleet worker, with
// WorkerEnv set, speaking the protocol on its stdin/stdout pipes.
// Stderr passes through so a worker panic is visible. Its close kills
// and reaps the process; a worker that already exited (or was killed
// externally) just gets reaped.
func spawnWorker(name string) (*worker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fleet: locate executable: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: spawn worker: %w", err)
	}
	var reaped sync.Once
	return &worker{Session: rpcx.NewSession(stdout, stdin), id: name, pid: cmd.Process.Pid, close: func() {
		_ = stdin.Close()
		_ = cmd.Process.Kill()
		reaped.Do(func() { _ = cmd.Wait() })
	}}, nil
}

// DialWith connects to a remote worker daemon (one started with
// ServeWith / `lmbench -fleet-listen`) through rpcx.Dial — capped
// backoff retries, WrapConn, idle deadlines — and returns the
// coordinator-side handle, whose close closes the connection. A zero
// PeerTimeout is 60s: several missed heartbeats, not one slow
// experiment, declare a worker dead.
func DialWith(ctx context.Context, addr string, o rpcx.DialOptions) (*worker, error) {
	if o.PeerTimeout == 0 {
		o.PeerTimeout = 60 * time.Second
	}
	var w *worker
	err := rpcx.Dial(ctx, addr, o, func(s *rpcx.Session) error {
		w = &worker{Session: s, id: addr, close: func() { _ = s.Conn.Close() }}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: dial worker %s: %w", addr, err)
	}
	return w, nil
}

// ServeWith runs a worker daemon on ln through rpcx.Serve: every
// accepted connection is one coordinator session, served by the loop a
// spawned worker runs on its pipes. It returns when ctx is cancelled
// (nil, after a graceful drain) or the listener fails. Sessions are
// independent — a coordinator that vanishes mid-unit costs only its
// own connection. A session is busy only while it executes a unit, so
// on cancel idle sessions are cut loose at once, and a session
// executing a unit finishes it and delivers the result (bounded by
// DrainTimeout — the coordinator sees a completed unit, not a
// redispatch). The daemon's defaults: a 60s IdleTimeout (idle
// coordinators ping every idlePingInterval), a 30s DrainTimeout, and
// failed sessions logged to stderr.
func ServeWith(ctx context.Context, ln net.Listener, o rpcx.ServeOptions) error {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 60 * time.Second
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return rpcx.Serve(ctx, ln, o, func(ctx context.Context, s *rpcx.Session) error {
		if err := work(ctx, s); err != nil {
			return fmt.Errorf("fleet worker session: %w", err)
		}
		return nil
	})
}
