package host

// Tests for the context binding: binding a context must let
// cancellation and deadlines wake I/O that is already blocked deep in
// a pipe, socket or ring read — the mechanism that makes per-experiment
// timeouts enforceable against a wedged host benchmark — and clearing
// the binding must restore normal operation.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"
)

// blockedRead runs read in a goroutine and returns a channel carrying
// its error.
func blockedRead(read func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- read() }()
	return done
}

// expectWoken asserts that a blocked read returns a deadline error
// promptly instead of sleeping forever.
func expectWoken(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s returned %v, want ErrDeadlineExceeded", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s stayed blocked after the cancellation hook should have fired", what)
	}
}

// TestBindContextWakesBlockedPipeRead: cancel while a reader is parked
// in a pipe read with no writer — the cancellation hook's forced
// deadline must wake it.
func TestBindContextWakesBlockedPipeRead(t *testing.T) {
	m := newHost(t)
	// Prime the latency pipes (and their echo goroutine).
	if err := m.Net().PipeRoundTrip(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.BindContext(ctx)
	defer m.BindContext(context.Background())

	// Nothing is written to the A-side, so the B-side read blocks.
	var b [1]byte
	done := blockedRead(func() error {
		_, err := m.net.latPipeBR.Read(b[:])
		return err
	})
	time.Sleep(50 * time.Millisecond) // let the read park
	cancel()
	expectWoken(t, done, "pipe read")
}

// TestBindContextWakesBlockedSocketRead: same for a TCP socket — the
// echo server only answers after receiving, so a bare read blocks
// until the cancellation hook fires.
func TestBindContextWakesBlockedSocketRead(t *testing.T) {
	m := newHost(t)
	if err := m.Net().TCPRoundTrip(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.BindContext(ctx)
	defer m.BindContext(context.Background())

	var b [1]byte
	done := blockedRead(func() error {
		_, err := m.net.echoC.Read(b[:])
		return err
	})
	time.Sleep(50 * time.Millisecond)
	cancel()
	expectWoken(t, done, "socket read")
}

// TestBindContextDeadlineFires: a context that already carries a
// deadline propagates it at bind time — blocked I/O wakes when the
// deadline passes with no explicit cancel.
func TestBindContextDeadlineFires(t *testing.T) {
	m := newHost(t)
	if err := m.Net().PipeRoundTrip(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	m.BindContext(ctx)
	defer m.BindContext(context.Background())

	var b [1]byte
	done := blockedRead(func() error {
		_, err := m.net.latPipeBR.Read(b[:])
		return err
	})
	expectWoken(t, done, "deadlined pipe read")
}

// TestBindContextWakesBlockedRingRead: a read parked on a ring's
// collect end, with no token in flight, must wake on cancel, and a ring
// built once the binding is cleared passes normally.
func TestBindContextWakesBlockedRingRead(t *testing.T) {
	m := newHost(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.BindContext(ctx)
	defer m.BindContext(context.Background())
	r, err := m.OS().NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var b [1]byte
	done := blockedRead(func() error {
		_, err := r.(*hostRing).collect.Read(b[:])
		return err
	})
	time.Sleep(50 * time.Millisecond)
	cancel()
	expectWoken(t, done, "ring read")

	m.BindContext(context.Background())
	fresh, err := m.OS().NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	within(t, "ring pass after clearing binding", fresh.Pass)
}

// within runs op and fails the test if op fails or is still blocked
// after ten seconds.
func within(t *testing.T, what string, op func() error) {
	t.Helper()
	select {
	case err := <-blockedRead(op):
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still blocked after 10s", what)
	}
}

// TestBindContextClearRestores: after a cancelled binding is replaced
// with context.Background(), every network primitive works normally
// again — the forced deadlines and the context check must not outlive
// the binding, and no server end may have been given them.
func TestBindContextClearRestores(t *testing.T) {
	m := newHost(t)
	net := m.Net()
	ops := []struct {
		name string
		op   func() error
	}{
		{"pipe transfer", func() error { return net.PipeTransfer(256 << 10) }},
		{"tcp transfer", func() error { return net.TCPTransfer(256 << 10) }},
		{"pipe round trip", net.PipeRoundTrip},
		{"tcp round trip", net.TCPRoundTrip},
		{"udp round trip", net.UDPRoundTrip},
		{"rpc/tcp round trip", net.RPCTCPRoundTrip},
		{"rpc/udp round trip", net.RPCUDPRoundTrip},
		{"tcp connect", net.TCPConnect},
	}
	// Every server is up before the cancellation fires.
	for _, o := range ops {
		within(t, o.name, o.op)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.BindContext(ctx)
	cancel()
	// A parked client read wakes once the forced deadlines are set.
	var b [1]byte
	expectWoken(t, blockedRead(func() error {
		_, err := m.net.latPipeBR.Read(b[:])
		return err
	}), "pipe read")
	// With the cancelled context still bound, ops refuse promptly.
	for _, o := range ops {
		start := time.Now()
		if err := o.op(); err == nil {
			t.Errorf("%s succeeded under a cancelled binding", o.name)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("cancelled %s took %v to fail", o.name, d)
		}
	}

	m.BindContext(context.Background())
	for i := 0; i < 10; i++ {
		within(t, fmt.Sprintf("pipe round trip %d after clearing binding", i), net.PipeRoundTrip)
	}
	for _, o := range ops {
		within(t, o.name+" after clearing binding", o.op)
	}
}
