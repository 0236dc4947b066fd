package rpcx

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// msg is the test protocol: the echo handler answers every message
// with itself, and holds a "wait" message until the test releases it.
type msg struct {
	Op string `json:"op"`
	N  int    `json:"n"`
}

// echoServer runs Serve on a loopback listener with an echo handler
// that is busy only between a message and its reply.
type echoServer struct {
	addr    string
	entered chan struct{} // a "wait" message made its session busy
	release chan struct{} // closing it lets held replies go
	ctxErr  chan error    // a held session's context error, if it ended first
	cancel  func()
	done    chan error
}

func startEcho(t *testing.T, o ServeOptions) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &echoServer{
		addr: ln.Addr().String(), entered: make(chan struct{}, 8), release: make(chan struct{}),
		ctxErr: make(chan error, 8), cancel: cancel, done: make(chan error, 1),
	}
	go func() {
		e.done <- Serve(ctx, ln, o, func(ctx context.Context, s *Session) error {
			for {
				s.SetBusy(false)
				var m msg
				if err := s.Recv(&m); err != nil {
					return err
				}
				s.SetBusy(true)
				if m.Op == "wait" {
					e.entered <- struct{}{}
					select {
					case <-e.release:
					case <-ctx.Done():
						e.ctxErr <- ctx.Err()
						return ctx.Err()
					}
				}
				if err := s.Send(m); err != nil {
					return err
				}
			}
		})
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-e.done:
		case <-time.After(30 * time.Second):
			t.Error("Serve did not return")
		}
	})
	return e
}

// stop cancels the server and returns Serve's result.
func (e *echoServer) stop(t *testing.T) error {
	t.Helper()
	e.cancel()
	select {
	case err := <-e.done:
		e.done <- err // for the cleanup
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
		return nil
	}
}

// dial opens a client session to the server.
func (e *echoServer) dial(t *testing.T) *Session {
	t.Helper()
	c, err := net.Dial("tcp", e.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	return newConnSession(c)
}

// roundTrip sends m and expects it echoed.
func roundTrip(t *testing.T, s *Session, m msg) {
	t.Helper()
	if err := s.Send(m); err != nil {
		t.Fatal(err)
	}
	var got msg
	if err := s.Recv(&got); err != nil || got != m {
		t.Fatalf("echo of %+v: %+v, %v", m, got, err)
	}
}

// expectCut fails unless the server has closed s's connection.
func expectCut(t *testing.T, s *Session, within time.Duration) {
	t.Helper()
	start := time.Now()
	var m msg
	if err := s.Recv(&m); err == nil {
		t.Fatalf("session still alive: got %+v", m)
	}
	if d := time.Since(start); d > within {
		t.Fatalf("session cut after %v, want within %v", d, within)
	}
}

// TestSessionLayer pins the contract every wire endpoint relies on:
// Serve's accept, idle-deadline and drain behaviour, WrapConn's view of
// the accept path, and Dial's retries.
func TestSessionLayer(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"cancel refuses new connections", func(t *testing.T) {
			e := startEcho(t, ServeOptions{})
			roundTrip(t, e.dial(t), msg{N: 1})
			if err := e.stop(t); err != nil {
				t.Fatalf("Serve = %v, want nil", err)
			}
			if c, err := net.Dial("tcp", e.addr); err == nil {
				c.Close()
				t.Fatal("dial succeeded after cancel")
			}
		}},
		{"cancel cuts an idle session at once", func(t *testing.T) {
			e := startEcho(t, ServeOptions{DrainTimeout: time.Minute})
			s := e.dial(t)
			roundTrip(t, s, msg{N: 1})
			e.cancel()
			expectCut(t, s, 5*time.Second)
			if err := e.stop(t); err != nil {
				t.Fatalf("Serve = %v, want nil", err)
			}
		}},
		{"a busy session's reply still arrives", func(t *testing.T) {
			e := startEcho(t, ServeOptions{DrainTimeout: time.Minute})
			s := e.dial(t)
			if err := s.Send(msg{Op: "wait", N: 7}); err != nil {
				t.Fatal(err)
			}
			<-e.entered
			e.cancel()
			// The listener closes while the session stays up.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				c, err := net.Dial("tcp", e.addr)
				if err != nil {
					break
				}
				c.Close()
				if time.Now().After(deadline) {
					t.Fatal("listener still accepting after cancel")
				}
			}
			close(e.release)
			var got msg
			if err := s.Recv(&got); err != nil || got.N != 7 {
				t.Fatalf("reply during drain: %+v, %v", got, err)
			}
			expectCut(t, s, 5*time.Second) // idle again: cut
			if err := e.stop(t); err != nil {
				t.Fatalf("Serve = %v, want nil", err)
			}
		}},
		{"a session busy at DrainTimeout is force-closed", func(t *testing.T) {
			e := startEcho(t, ServeOptions{DrainTimeout: 100 * time.Millisecond})
			s := e.dial(t)
			if err := s.Send(msg{Op: "wait"}); err != nil {
				t.Fatal(err)
			}
			<-e.entered
			start := time.Now()
			if err := e.stop(t); err != nil {
				t.Fatalf("Serve = %v, want nil", err)
			}
			if d := time.Since(start); d < 100*time.Millisecond {
				t.Fatalf("Serve returned after %v, before DrainTimeout", d)
			}
			if err := <-e.ctxErr; !errors.Is(err, context.Canceled) {
				t.Fatalf("held session's context: %v, want Canceled", err)
			}
			expectCut(t, s, 5*time.Second)
		}},
		{"a silent peer is reaped at the idle deadline", func(t *testing.T) {
			logged := make(chan string, 1)
			e := startEcho(t, ServeOptions{
				IdleTimeout: 100 * time.Millisecond,
				Logf: func(format string, args ...any) {
					select {
					case logged <- format:
					default:
					}
				},
			})
			expectCut(t, e.dial(t), 5*time.Second)
			select {
			case <-logged:
			case <-time.After(5 * time.Second):
				t.Fatal("reaped session's error not logged")
			}
		}},
		{"WrapConn sees every connection in accept order", func(t *testing.T) {
			var mu sync.Mutex
			var seen []string
			e := startEcho(t, ServeOptions{WrapConn: func(c net.Conn) net.Conn {
				mu.Lock()
				defer mu.Unlock()
				seen = append(seen, c.RemoteAddr().String())
				if len(seen) == 3 {
					c.Close() // refused
					return nil
				}
				return c
			}})
			var want []string
			var sessions []*Session
			for i := 0; i < 5; i++ {
				s := e.dial(t)
				want = append(want, s.Conn.LocalAddr().String())
				sessions = append(sessions, s)
			}
			for i, s := range sessions {
				if i == 2 {
					expectCut(t, s, 5*time.Second)
					continue
				}
				roundTrip(t, s, msg{N: i})
			}
			mu.Lock()
			defer mu.Unlock()
			if len(seen) != len(want) {
				t.Fatalf("WrapConn saw %d connections, want %d", len(seen), len(want))
			}
			for i := range want {
				if seen[i] != want[i] {
					t.Fatalf("WrapConn order %v, want %v", seen, want)
				}
			}
		}},
		{"Dial retries a refused dial", func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			retried := make(chan struct{}, 64)
			up := make(chan struct{})
			go func() {
				<-retried // bring the server up after the first refusal
				ln, err := net.Listen("tcp", addr)
				if err != nil {
					t.Error(err)
					close(up)
					return
				}
				close(up)
				ctx, cancel := context.WithCancel(context.Background())
				t.Cleanup(cancel)
				go func() {
					_ = Serve(ctx, ln, ServeOptions{}, func(_ context.Context, s *Session) error {
						var m msg
						if err := s.Recv(&m); err != nil {
							return err
						}
						return s.Send(m)
					})
				}()
			}()
			retries := 0
			err = Dial(context.Background(), addr, DialOptions{
				Retries: 50, Backoff: 20 * time.Millisecond,
				OnRetry: func(int, error) { retries++; retried <- struct{}{} },
			}, func(s *Session) error {
				defer s.Conn.Close()
				if err := s.Send(msg{N: 9}); err != nil {
					return err
				}
				var got msg
				return s.Recv(&got)
			})
			<-up
			if err != nil {
				t.Fatalf("Dial never reached the late server: %v", err)
			}
			if retries < 1 {
				t.Fatal("Dial succeeded without retrying the refused dial")
			}
		}},
		{"Dial stops on a cancelled context", func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			ctx, cancel := context.WithCancel(context.Background())
			start := time.Now()
			err = Dial(ctx, addr, DialOptions{
				Retries: 1000, Backoff: time.Hour,
				OnRetry: func(int, error) { cancel() },
			}, func(*Session) error { return nil })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Dial = %v, want context.Canceled", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("cancelled Dial took %v", d)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
