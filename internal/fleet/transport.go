package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rpcx"
)

// workerConn is the coordinator's handle on one worker, local or
// remote. Send/recv follow the session protocol; Close tears the
// worker down hard (kill for processes, close for connections), which
// unblocks any pending recv.
type workerConn interface {
	id() string
	send(*wireMsg) error
	recv() (*wireMsg, error)
	close()
	// pid returns the worker's process ID, or 0 for remote workers.
	pid() int
}

// procWorker is a locally spawned worker process: a re-exec of the
// current binary with WorkerEnv set, speaking the protocol on its
// stdin/stdout pipes. Stderr passes through so a worker panic is
// visible.
type procWorker struct {
	name string
	cmd  *exec.Cmd
	s    *session
	in   io.WriteCloser

	waitOnce sync.Once
	waitErr  error
}

// spawnWorker re-executes the current binary as a fleet worker.
func spawnWorker(name string) (*procWorker, error) {
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
	return &procWorker{name: name, cmd: cmd, s: newSession(stdout, stdin), in: stdin}, nil
}

func (p *procWorker) id() string              { return p.name }
func (p *procWorker) send(m *wireMsg) error   { return p.s.send(m) }
func (p *procWorker) recv() (*wireMsg, error) { return p.s.recv() }
func (p *procWorker) pid() int                { return p.cmd.Process.Pid }

// close kills the worker process and reaps it. Idempotent: a worker
// that already exited (or was killed externally) just gets reaped.
func (p *procWorker) close() {
	_ = p.in.Close()
	_ = p.cmd.Process.Kill()
	p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
}

// netWorker is a remote worker daemon reached over TCP; the connection
// carries the same record-framed JSONL as the local pipes.
type netWorker struct {
	name string
	conn net.Conn
	s    *session
}

// DialOptions tunes how a coordinator reaches a remote worker daemon.
// The zero value selects production defaults.
type DialOptions struct {
	// Retries is how many times a refused/failed dial is retried with
	// doubling backoff (so Retries+1 attempts). Default 4; negative
	// disables retry. A daemon that is restarting — or hasn't finished
	// booting when the coordinator starts — is reached on a later
	// attempt instead of failing the run.
	Retries int
	// Backoff is the initial retry delay, doubling per retry and
	// saturating at 30s. Default 100ms.
	Backoff time.Duration
	// PeerTimeout is the per-read idle deadline on the connection: a
	// worker silent for this long (no result, event, or heartbeat) is
	// declared dead and its unit re-dispatched. Default 60s — several
	// missed heartbeats, not one slow experiment; negative disables.
	PeerTimeout time.Duration
	// WriteTimeout is the per-write deadline. Default 30s; negative
	// disables.
	WriteTimeout time.Duration
	// WrapConn, when set, wraps the dialed connection — the chaos seam
	// (netfaults installs its injector here).
	WrapConn func(net.Conn) net.Conn
}

func (o DialOptions) normalize() DialOptions {
	if o.Retries == 0 {
		o.Retries = 4
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.PeerTimeout == 0 {
		o.PeerTimeout = 60 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	return o
}

// DialWith connects to a remote worker daemon (one started with Serve /
// `lmbench -fleet-listen`) with retry/backoff, arms idle deadlines on
// the connection, and returns the coordinator-side handle.
func DialWith(ctx context.Context, addr string, o DialOptions) (*netWorker, error) {
	o = o.normalize()
	var d net.Dialer
	backoff := o.Backoff
	var lastErr error
	for attempt := 0; attempt <= o.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff = core.NextBackoff(backoff)
		}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			if o.WrapConn != nil {
				conn = o.WrapConn(conn)
			}
			c := rpcx.WithDeadlines(conn, o.PeerTimeout, o.WriteTimeout)
			return &netWorker{name: addr, conn: conn, s: newSession(c, c)}, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("fleet: dial worker %s: %w", addr, lastErr)
}

func (n *netWorker) id() string              { return n.name }
func (n *netWorker) send(m *wireMsg) error   { return n.s.send(m) }
func (n *netWorker) recv() (*wireMsg, error) { return n.s.recv() }
func (n *netWorker) close()                  { _ = n.conn.Close() }
func (n *netWorker) pid() int                { return 0 }

// ServeOptions tunes the worker daemon loop. The zero value selects
// production defaults.
type ServeOptions struct {
	// IdleTimeout is the per-read idle deadline on a session: a
	// coordinator silent for this long (no unit, no keepalive ping) is
	// presumed gone and its session reaped, so a hung peer can't hold a
	// daemon goroutine forever. Healthy idle coordinators ping every
	// idlePingInterval. Default 60s; negative disables.
	IdleTimeout time.Duration
	// WriteTimeout is the per-write deadline. Default 30s; negative
	// disables.
	WriteTimeout time.Duration
	// DrainTimeout bounds the graceful drain after ctx is cancelled:
	// idle sessions are cut immediately, busy sessions get this long to
	// finish their in-flight unit and report its result, then their
	// suite context is cancelled and connections closed. Default 30s;
	// negative waits indefinitely.
	DrainTimeout time.Duration
	// WrapConn, when set, wraps every accepted connection — the chaos
	// seam.
	WrapConn func(net.Conn) net.Conn
	// Logf, when set, receives one line per failed session; default
	// stderr.
	Logf func(format string, args ...any)
}

func (o ServeOptions) normalize() ServeOptions {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 60 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return o
}

// Serve runs a worker daemon with default options: every accepted
// connection is one coordinator session served by Work. It returns
// when ctx is cancelled (nil, after a graceful drain) or the listener
// fails. Sessions are independent — a coordinator that vanishes
// mid-unit costs only its own connection.
func Serve(ctx context.Context, ln net.Listener) error {
	return ServeWith(ctx, ln, ServeOptions{})
}

// ServeWith is Serve with explicit options. On ctx cancellation it
// drains gracefully: the listener closes, idle sessions are cut loose
// immediately, sessions executing a unit finish it and deliver the
// result (bounded by DrainTimeout — the coordinator sees a completed
// unit, not a redispatch), then the daemon exits with nil.
func ServeWith(ctx context.Context, ln net.Listener, o ServeOptions) error {
	o = o.normalize()
	type sess struct {
		conn net.Conn
		busy atomic.Bool
	}
	var (
		mu       sync.Mutex
		sessions = make(map[*sess]struct{})
		wg       sync.WaitGroup
	)
	// Sessions must outlive ctx during the drain, but die at its end.
	sessCtx, sessCancel := context.WithCancel(context.WithoutCancel(ctx))
	defer sessCancel()
	drain := make(chan struct{})
	stopAccept := context.AfterFunc(ctx, func() { _ = ln.Close() })
	defer stopAccept()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				break
			}
			return err
		}
		if o.WrapConn != nil {
			conn = o.WrapConn(conn)
		}
		se := &sess{conn: conn}
		mu.Lock()
		sessions[se] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				_ = conn.Close()
				mu.Lock()
				delete(sessions, se)
				mu.Unlock()
			}()
			c := rpcx.WithDeadlines(conn, o.IdleTimeout, o.WriteTimeout)
			if err := work(sessCtx, drain, se.busy.Store, c, c); err != nil {
				o.Logf("fleet worker session: %v", err)
			}
		}()
	}

	// Drain: cut idle sessions now, let busy ones land their unit.
	close(drain)
	mu.Lock()
	for se := range sessions {
		if !se.busy.Load() {
			_ = se.conn.Close()
		}
	}
	mu.Unlock()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var force <-chan time.Time
	if o.DrainTimeout > 0 {
		t := time.NewTimer(o.DrainTimeout)
		defer t.Stop()
		force = t.C
	}
	select {
	case <-done:
	case <-force:
		sessCancel()
		mu.Lock()
		for se := range sessions {
			_ = se.conn.Close()
		}
		mu.Unlock()
		<-done
	}
	return nil
}
