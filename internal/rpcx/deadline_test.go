package rpcx

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestWithDeadlinesIdleTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	dc := WithDeadlines(server, 150*time.Millisecond, 150*time.Millisecond)
	// Active peer: two reads separated by more than the idle timeout,
	// each served promptly — the per-call arming must not fire early.
	go func() {
		client.Write([]byte("a"))
		time.Sleep(100 * time.Millisecond)
		client.Write([]byte("b"))
	}()
	buf := make([]byte, 1)
	for i := 0; i < 2; i++ {
		if _, err := io.ReadFull(dc, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Silent peer: the next read times out instead of blocking forever.
	start := time.Now()
	_, err = dc.Read(buf)
	if err == nil {
		t.Fatal("read from silent peer succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout took far too long")
	}
}
