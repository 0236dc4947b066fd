package rpcx

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the session layer under every wire endpoint of the
// suite — the fleet worker daemon and the coordinator that dials it,
// the store ingest daemon and its publishers, the chaos proxy. It owns
// what each of them would otherwise write for itself: the JSON message
// codec over record frames, the server that accepts, times out and
// drains sessions, and the dialer that retries. An endpoint supplies
// its handler and its defaults.

// MaxMessageBytes bounds one message frame. The largest legitimate
// payload — a Figure-1 series fragment with quality attrs — is a few
// hundred kilobytes; 16MB keeps the bound far from real traffic while
// still refusing a corrupt length prefix.
const MaxMessageBytes = 16 << 20

// WriteJSON encodes v as JSON and sends it as one frame (one Write).
func WriteJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rpcx: encode message: %w", err)
	}
	return WriteFrame(w, b)
}

// ReadJSON receives one frame of at most MaxMessageBytes and decodes
// it into v. A stream that ends cleanly before the frame returns
// io.EOF.
func ReadJSON(r io.Reader, v any) error {
	b, err := ReadFrame(r, MaxMessageBytes)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("rpcx: decode frame: %w", err)
	}
	return nil
}

// Session is one peer's message stream: JSON messages, one frame each.
// Send is safe for concurrent use, so events, heartbeats and results
// can share a session without tearing frames; Recv is not.
type Session struct {
	// Conn is the session's connection: after WrapConn, with the idle
	// deadlines armed (and, when dialed, closed by the dial context's
	// end). Nil for a session over NewSession's reader and writer.
	Conn net.Conn
	r    *bufio.Reader
	wmu  sync.Mutex
	w    io.Writer
	srv  *server // nil outside Serve
	busy bool    // guarded by srv.mu
}

// NewSession returns a session over r and w outside any server: a
// spawned worker's pipes, or a test's buffers. Nothing drains it.
func NewSession(r io.Reader, w io.Writer) *Session {
	return &Session{r: bufio.NewReader(r), w: w}
}

func newConnSession(c net.Conn) *Session { return &Session{Conn: c, r: bufio.NewReader(c), w: c} }

// Send writes v as one message.
func (s *Session) Send(v any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return WriteJSON(s.w, v)
}

// Recv reads the next message into v.
func (s *Session) Recv(v any) error { return ReadJSON(s.r, v) }

// SetBusy marks a Serve session busy — holding work its server's drain
// lets finish — or idle. A session is busy from accept until its
// handler first marks it idle, so a drain never cuts a connection its
// handler has not looked at. An idle session is cut when its server
// drains: its connection is closed, at once if the drain has begun.
// Outside Serve it does nothing.
func (s *Session) SetBusy(busy bool) {
	if s.srv == nil {
		return
	}
	s.srv.mu.Lock()
	s.busy = busy
	cut := !busy && s.srv.draining
	s.srv.mu.Unlock()
	if cut {
		_ = s.Conn.Close()
	}
}

// Draining reports whether the session's server has begun to drain;
// always false outside Serve.
func (s *Session) Draining() bool {
	if s.srv == nil {
		return false
	}
	s.srv.mu.Lock()
	defer s.srv.mu.Unlock()
	return s.srv.draining
}

// ServeOptions configures a session server (Serve). The zero value of
// a field selects its default; an endpoint whose defaults differ sets
// them before calling Serve.
type ServeOptions struct {
	// IdleTimeout is the per-read idle deadline on a session: a peer
	// silent this long fails the session's next read, so a
	// connect-then-silent peer cannot hold a server goroutine forever.
	// Default 30s; negative disables.
	IdleTimeout time.Duration
	// WriteTimeout is the per-write deadline. Default 30s; negative
	// disables.
	WriteTimeout time.Duration
	// DrainTimeout bounds the drain after the server's context is
	// cancelled: busy sessions get this long to finish, then their
	// context is cancelled and their connections are closed. Default
	// 10s; negative waits indefinitely.
	DrainTimeout time.Duration
	// WrapConn, when set, wraps every accepted connection on the
	// accept path, in accept order, before its session starts — the
	// chaos seam. Returning nil refuses the connection (WrapConn
	// closes it).
	WrapConn func(net.Conn) net.Conn
	// Registry, when set, is where the endpoint exports its metric
	// families (the store ingest daemon counts sessions and failures).
	Registry *obs.Registry
	// Logf, when set, receives the error of every failed session.
	Logf func(format string, args ...any)
}

func (o ServeOptions) normalize() ServeOptions {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 30 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

// server is the drain state Serve shares with its sessions.
type server struct {
	mu       sync.Mutex
	sessions map[*Session]struct{}
	draining bool
}

// cut starts the drain and closes the connection of every idle
// session, or of every session when all is set.
func (srv *server) cut(all bool) {
	var conns []net.Conn
	srv.mu.Lock()
	srv.draining = true
	for s := range srv.sessions {
		if all || !s.busy {
			conns = append(conns, s.Conn)
		}
	}
	srv.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Serve accepts connections on ln until ctx is cancelled or the
// listener fails, and runs handle on each as one session in its own
// goroutine. Every accepted connection passes WrapConn and gets the
// idle deadlines before handle sees it; a session's connection is
// closed when handle returns, and a handle error goes to Logf.
//
// Sessions run on a context that outlives ctx. On cancel the listener
// closes, so new connections are refused, and idle sessions are cut
// (see SetBusy). Busy sessions get DrainTimeout to finish; then their
// context is cancelled and their connections are force-closed. Serve
// returns once every session has ended: nil after a cancel, or the
// accept error that stopped it.
func Serve(ctx context.Context, ln net.Listener, o ServeOptions, handle func(context.Context, *Session) error) error {
	o = o.normalize()
	srv := &server{sessions: map[*Session]struct{}{}}
	var wg sync.WaitGroup
	sessCtx, cancelSessions := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelSessions()
	stopAccept := context.AfterFunc(ctx, func() { _ = ln.Close() })
	defer stopAccept()
	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			if ctx.Err() == nil && !errors.Is(aerr, net.ErrClosed) {
				err = aerr
			}
			break
		}
		if o.WrapConn != nil {
			if conn = o.WrapConn(conn); conn == nil {
				continue
			}
		}
		s := newConnSession(WithDeadlines(conn, o.IdleTimeout, o.WriteTimeout))
		s.srv, s.busy = srv, true
		srv.mu.Lock()
		srv.sessions[s] = struct{}{}
		srv.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if herr := handle(sessCtx, s); herr != nil && o.Logf != nil {
				o.Logf("%v", herr)
			}
			_ = s.Conn.Close()
			srv.mu.Lock()
			delete(srv.sessions, s)
			srv.mu.Unlock()
		}()
	}

	srv.cut(false)
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
		cancelSessions()
		srv.cut(true)
		<-done
	}
	return err
}

// DialOptions configures Dial. The zero value of a field selects its
// default; an endpoint whose defaults differ sets them before calling
// Dial.
type DialOptions struct {
	// Retries is how many times a failed dial or session is retried
	// (so Retries+1 attempts), pausing Backoff first and then on the
	// capped doubling schedule of core.NextBackoff. A peer that is
	// restarting, or has not finished booting, is reached on a later
	// attempt. Default 4; negative disables retry.
	Retries int
	// Backoff is the first retry pause. Default 100ms.
	Backoff time.Duration
	// PeerTimeout is the per-read idle deadline: a peer silent this
	// long fails the session's next read. Default 30s; negative
	// disables.
	PeerTimeout time.Duration
	// WriteTimeout is the per-write deadline. Default 30s; negative
	// disables.
	WriteTimeout time.Duration
	// WrapConn, when set, wraps every dialed connection — the chaos
	// seam.
	WrapConn func(net.Conn) net.Conn
	// OnRetry, when set, is called before each retry pause with the
	// 1-based retry number and the error being retried.
	OnRetry func(retry int, err error)
}

func (o DialOptions) normalize() DialOptions {
	if o.Retries == 0 {
		o.Retries = 4
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = core.NextBackoff(0)
	}
	if o.PeerTimeout == 0 {
		o.PeerTimeout = 30 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	return o
}

// Dial connects to addr over TCP and runs session on the connection,
// which has passed WrapConn, has the idle deadlines armed and is bound
// to ctx: ctx's end closes it. A failed dial or session is retried
// (see DialOptions.Retries) on a fresh connection, the failed one
// closed; after a successful session the connection is the session's
// to keep or close. Dial returns nil once a session succeeds, ctx's
// error once ctx is done, or the last failure once the retries are
// spent.
func Dial(ctx context.Context, addr string, o DialOptions, session func(*Session) error) error {
	o = o.normalize()
	var d net.Dialer
	backoff := o.Backoff
	for attempt := 1; ; attempt++ {
		err := dialOnce(ctx, &d, addr, o, session)
		switch {
		case err == nil:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case attempt > o.Retries:
			return fmt.Errorf("rpcx: %s: failed after %d attempt(s): %w", addr, attempt, err)
		}
		if o.OnRetry != nil {
			o.OnRetry(attempt, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff = core.NextBackoff(backoff)
	}
}

// dialOnce is one attempt of Dial.
func dialOnce(ctx context.Context, d *net.Dialer, addr string, o DialOptions, session func(*Session) error) error {
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	if o.WrapConn != nil {
		conn = o.WrapConn(conn)
	}
	c := &boundConn{Conn: WithDeadlines(conn, o.PeerTimeout, o.WriteTimeout)}
	c.stop = context.AfterFunc(ctx, func() { _ = c.Conn.Close() })
	if err := session(newConnSession(c)); err != nil {
		_ = c.Close()
		return err
	}
	return nil
}

// boundConn is a dialed connection that its dial context's end closes.
type boundConn struct {
	net.Conn
	stop func() bool
}

func (c *boundConn) Close() error {
	c.stop()
	return c.Conn.Close()
}
