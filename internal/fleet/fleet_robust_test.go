package fleet

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/results"
	"repro/internal/rpcx"
)

// startDaemon boots ServeWith on an ephemeral port and returns its
// address plus a shutdown func that cancels and waits for the drain.
func startDaemon(t *testing.T, o rpcx.ServeOptions) (addr string, shutdown func()) {
	t.Helper()
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeWith(ctx, ln, o) }()
	return ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("ServeWith: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Error("daemon did not drain")
		}
	}
}

// TestSilentRemotePeer proves a remote worker that accepts a unit and
// then goes silent cannot hang the run: the coordinator's peer timeout
// declares it dead, the unit re-dispatches to the surviving local
// worker, and the result is still byte-identical to serial.
func TestSilentRemotePeer(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet run in -short mode")
	}
	want := serialBytes(t)

	// The "daemon": accepts sessions, reads frames forever, never
	// replies — a hung process that still has a live TCP stack.
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	obs := &testObserver{}
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Workers: 1, Connect: []string{ln.Addr().String()},
		Dial:        rpcx.DialOptions{PeerTimeout: 500 * time.Millisecond},
		UnitRetries: 10,
		Obs:         obs,
	}
	db := &results.DB{}
	if _, err := c.Run(context.Background(), db); err != nil {
		t.Fatalf("run with silent peer: %v", err)
	}
	if got := encode(t, db); !bytes.Equal(got, want) {
		t.Fatal("fleet bytes diverge from serial after silent-peer redispatch")
	}
	obs.mu.Lock()
	down, retried := obs.down, obs.retried
	obs.mu.Unlock()
	if down < 1 {
		t.Fatalf("WorkerDown = %d, want >= 1 (the silent peer)", down)
	}
	if retried < 1 {
		t.Fatalf("UnitRetried = %d, want >= 1", retried)
	}
}

// TestFleetChaosByteIdentical runs a mixed pool — one local worker, one
// real remote daemon dialed through a deterministic chaos conn that
// drops and truncates frames until its budget drains — and requires the
// merged database to stay byte-identical to serial. Flips are excluded
// deliberately: the fleet edge has no end-to-end hash (the store edge
// does), so a flipped-but-parseable frame is detectable only there.
func TestFleetChaosByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet run in -short mode")
	}
	want := serialBytes(t)
	addr, shutdown := startDaemon(t, rpcx.ServeOptions{Logf: t.Logf})
	defer shutdown()

	inj := faults.NewInjector(faults.WirePlan{Seed: 11, DropRate: 0.3, TruncRate: 0.2, Budget: 3})
	obs := &testObserver{}
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Workers: 1, Connect: []string{addr},
		Dial: rpcx.DialOptions{
			PeerTimeout: 2 * time.Second,
			Backoff:     10 * time.Millisecond,
			WrapConn:    func(c net.Conn) net.Conn { return inj.Conn(c) },
		},
		UnitRetries: 10,
		Obs:         obs,
	}
	db := &results.DB{}
	if _, err := c.Run(context.Background(), db); err != nil {
		t.Fatalf("chaos run: %v (faults: %s)", err, inj.Stats())
	}
	if got := encode(t, db); !bytes.Equal(got, want) {
		t.Fatalf("fleet bytes diverge from serial under chaos (faults: %s)", inj.Stats())
	}
}

// TestDialWithRetry proves the capped-backoff dial: the daemon comes up
// only after the coordinator's first attempts have failed, and DialWith
// still lands the connection.
func TestDialWithRetry(t *testing.T) {
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port; nothing listens now

	// One attempt against a dead port fails immediately.
	if _, err := DialWith(context.Background(), addr, rpcx.DialOptions{Retries: -1}); err == nil {
		t.Fatal("single-attempt dial to dead port succeeded")
	}

	go func() {
		time.Sleep(100 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		defer ln2.Close()
		c, err := ln2.Accept()
		if err != nil {
			return
		}
		// Answer the first frame with an echo so the session proves out.
		s := rpcx.NewSession(c, c)
		m, err := recvMsg(s)
		if err == nil {
			_ = s.Send(m)
		}
		c.Close()
	}()
	w, err := DialWith(context.Background(), addr, rpcx.DialOptions{Retries: 20, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("DialWith never reached the late daemon: %v", err)
	}
	defer w.close()
	if err := w.Send(&wireMsg{Type: msgPing}); err != nil {
		t.Fatal(err)
	}
	if m, err := recvMsg(w); err != nil || m.Type != msgPing {
		t.Fatalf("echo: %v %+v", err, m)
	}

	// With retry disabled, a dead port is a fast failure.
	ln3, _ := listenLoopback()
	dead := ln3.Addr().String()
	ln3.Close()
	start := time.Now()
	if _, err := DialWith(context.Background(), dead, rpcx.DialOptions{Retries: -1}); err == nil {
		t.Fatal("DialWith(Retries:-1) to dead port succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("non-retrying dial took the retry path")
	}
}

// TestDaemonIdleTimeoutAndKeepalive proves both halves of the idle
// policy: a session that says nothing is reaped at IdleTimeout, while a
// session that pings — as an idle coordinator does — outlives several
// timeout windows.
func TestDaemonIdleTimeoutAndKeepalive(t *testing.T) {
	addr, shutdown := startDaemon(t, rpcx.ServeOptions{IdleTimeout: 300 * time.Millisecond, Logf: t.Logf})
	defer shutdown()

	// Silent session: reaped promptly.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := silent.Read(make([]byte, 64)); err == nil {
		t.Fatal("silent session not reaped")
	}

	// Pinging session: alive well past the idle window.
	alive, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer alive.Close()
	as := rpcx.NewSession(alive, alive)
	deadline := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := as.Send(&wireMsg{Type: msgPing}); err != nil {
			t.Fatalf("keepalive session died: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// The session still executes a real unit after all that idling.
	u := &wireMsg{
		Type: msgUnit, V: protoVersion, Seq: 9,
		Machine: testMachines[0], Key: "table16", IDs: []string{"table16"},
		DRAM: dramFor(t, testMachines[0]),
	}
	o := fastOpts()
	u.Opts = &o
	if err := as.Send(u); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := recvMsg(as)
		if err != nil {
			t.Fatalf("result after keepalives: %v", err)
		}
		if m.Type == msgResult {
			if m.Err != "" || m.Record == nil || len(m.Record.Entries) == 0 {
				t.Fatalf("result: %+v", m)
			}
			break
		}
	}
}

// TestDrainFinishesBusyUnit cancels the daemon while a session is
// mid-unit and proves graceful drain: the listener refuses new
// connections, the busy session finishes its unit and delivers the
// result, and ServeWith returns nil.
func TestDrainFinishesBusyUnit(t *testing.T) {
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeWith(ctx, ln, rpcx.ServeOptions{DrainTimeout: 60 * time.Second, Logf: t.Logf}) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cs := rpcx.NewSession(conn, conn)
	u := &wireMsg{
		Type: msgUnit, V: protoVersion, Seq: 3,
		Machine: testMachines[0], Key: "table2", IDs: []string{"table2"},
		DRAM: dramFor(t, testMachines[0]),
	}
	o := fastOpts()
	u.Opts = &o
	if err := cs.Send(u); err != nil {
		t.Fatal(err)
	}
	// Wait for the first event frame — proof the session is busy — then
	// pull the rug.
	first, err := recvMsg(cs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Type != msgEvent {
		t.Fatalf("first frame: %+v", first)
	}
	cancel()
	// New connections must be refused once the listener closes.
	refusedBy := time.Now().Add(5 * time.Second)
	for {
		c2, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break
		}
		c2.Close()
		if time.Now().After(refusedBy) {
			t.Fatal("listener still accepting after cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The busy session still lands its result.
	for {
		m, err := recvMsg(cs)
		if err != nil {
			t.Fatalf("frame during drain: %v", err)
		}
		if m.Type == msgResult {
			if m.Err != "" || m.Record == nil || len(m.Record.Entries) == 0 {
				t.Fatalf("result during drain: %+v", m)
			}
			break
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeWith: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after drain")
	}
}

// TestWorkerHeartbeatsDuringUnit pins the protocol side of the
// liveness story: while a unit executes, the worker interleaves ping
// frames with events, so a coordinator with a short peer timeout sees
// traffic even when the measurement is slow. Exercised directly against
// work() over an in-memory pipe with a sub-second heartbeat is not
// possible (the interval is a const), so this instead proves the frames
// a worker emits mid-unit keep a deadline-armed reader alive.
func TestWorkerHeartbeatsDuringUnit(t *testing.T) {
	// The deadline conn arms per-Read; any frame re-arms it. Feed a
	// reader whose idle window is far shorter than the unit duration and
	// let the event stream (which rides the same path as heartbeats)
	// keep it alive.
	addr, shutdown := startDaemon(t, rpcx.ServeOptions{Logf: t.Logf})
	defer shutdown()
	w, err := DialWith(context.Background(), addr, rpcx.DialOptions{PeerTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	u := &wireMsg{
		Type: msgUnit, V: protoVersion, Seq: 1,
		Machine: testMachines[0], Key: "table7", IDs: []string{"table7"},
		DRAM: dramFor(t, testMachines[0]),
	}
	o := fastOpts()
	u.Opts = &o
	if err := w.Send(u); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := recvMsg(w)
		if err != nil {
			t.Fatalf("recv with 2s idle deadline: %v", err)
		}
		if m.Type == msgResult {
			if m.Err != "" {
				t.Fatalf("unit failed: %s", m.Err)
			}
			break
		}
	}
}
