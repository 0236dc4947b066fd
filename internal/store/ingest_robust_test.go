package store

import (
	"bufio"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/rpcx"
)

// startIngest boots ServeIngest on an ephemeral port and returns its
// address plus a shutdown func that cancels and waits for drain.
func startIngest(t *testing.T, s *Store, o IngestOptions) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeIngest(ctx, ln, s, o) }()
	return ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("ServeIngest: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("ServeIngest did not drain")
		}
	}
}

// TestPublishChaosConverges drives a publish through a client-side
// chaos conn: drops and truncations tear sessions down until the fault
// budget drains, then the retry loop lands the run. The store converges
// to exactly one healthy run and the retry counter reflects the fight.
func TestPublishChaosConverges(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	logf := t.Logf
	addr, shutdown := startIngest(t, s, IngestOptions{Registry: reg, Logf: logf})
	defer shutdown()

	inj := faults.NewInjector(faults.WirePlan{Seed: 7, DropRate: 0.25, TruncRate: 0.25, Budget: 3})
	retries := 0
	db := testDB(t, 1)
	got, err := PublishWith(context.Background(), addr, testManifest("chaotic"), db, PublishOptions{
		Retries:  10,
		Backoff:  5 * time.Millisecond,
		WrapConn: func(c net.Conn) net.Conn { return inj.Conn(c) },
		OnRetry: func(n int, err error) {
			retries++
			t.Logf("retry %d after: %v", n, err)
		},
	})
	if err != nil {
		t.Fatalf("publish never converged: %v (faults: %s)", err, inj.Stats())
	}
	if f := inj.Stats().Faults(); f < 1 || f > 3 {
		t.Fatalf("faults outside budget: %s", inj.Stats())
	}
	if retries < 1 {
		t.Fatalf("publish retries = %d, want >= 1", retries)
	}
	// Exactly one run, byte-verified.
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].RunID != got.RunID {
		t.Fatalf("runs: %+v", runs)
	}
	mustReadable(t, s, got)
	if rep, _ := s.Scrub(); !rep.Clean() {
		t.Fatalf("post-chaos scrub: %+v", rep)
	}
	// The daemon counted the torn sessions.
	fails := reg.Counter("lmbench_store_ingest_failures_total", "").Value()
	if fails < 1 {
		t.Fatalf("ingest failures = %d, want >= 1", fails)
	}
}

// TestSilentPeerTimesOut proves a connect-then-silent client cannot
// hold a daemon session goroutine: the idle deadline fires, the
// session ends as a failure, and the daemon drains immediately.
func TestSilentPeerTimesOut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	addr, shutdown := startIngest(t, s, IngestOptions{IdleTimeout: 200 * time.Millisecond, Registry: reg})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The daemon must hang up on us.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	buf := make([]byte, 512)
	if _, err := conn.Read(buf); err == nil {
		// The daemon replies with an error frame before closing;
		// either way the connection must die promptly.
		if _, err := conn.Read(buf); err == nil {
			t.Fatal("silent session still alive")
		}
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("daemon took %v to shed the silent peer", elapsed)
	}
	// Drain must not wait on the already-shed session.
	shutdown()
	if fails := reg.Counter("lmbench_store_ingest_failures_total", "").Value(); fails != 1 {
		t.Fatalf("ingest failures = %d, want 1", fails)
	}
}

// TestPublishRetriesAcrossDaemonRestart is the client half of the
// kill -9 story: the first session lands on a daemon that dies
// mid-ingest (connection torn with no reply), the retry lands on its
// replacement listening on the same address, and publishes converge
// idempotently.
func TestPublishRetriesAcrossDaemonRestart(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// "First daemon": accepts one session, reads the publish frame,
	// then dies without a word — the client sees a torn connection
	// exactly as a kill -9 mid-ingest produces.
	died := make(chan struct{})
	var once sync.Once
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		rpcx.ReadFrame(bufio.NewReader(c), rpcx.MaxMessageBytes)
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.Close()
		once.Do(func() { close(died) })
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var restart sync.Once
	retries := 0
	got, err := PublishWith(ctx, ln.Addr().String(), testManifest("survivor"), testDB(t, 1), PublishOptions{
		Retries: 5,
		Backoff: 10 * time.Millisecond,
		OnRetry: func(n int, err error) {
			retries++
			// Restart: the replacement daemon takes over the same
			// listener once the first one has died.
			<-died
			restart.Do(func() {
				go ServeIngest(ctx, ln, s, IngestOptions{})
			})
		},
	})
	if err != nil {
		t.Fatalf("publish did not survive the restart: %v", err)
	}
	if retries < 1 {
		t.Fatal("no retry recorded")
	}
	mustReadable(t, s, got)
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs after restart: %d", len(runs))
	}
}

// TestIngestDrainFinishesInFlight cancels the daemon mid-session and
// proves the drain semantics: no new connections, but the in-flight
// commit completes and the publisher gets its reply.
func TestIngestDrainFinishesInFlight(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeIngest(ctx, ln, s, IngestOptions{DrainTimeout: 20 * time.Second}) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Open the session, then cancel the daemon while mid-publish.
	m := testManifest("drained")
	if err := rpcx.WriteJSON(conn, &ingestMsg{
		Type: msgPublish, V: ingestVersion,
		Label: m.Label, Machines: m.Machines, Options: m.Options, CodeVersion: m.CodeVersion,
	}); err != nil {
		t.Fatal(err)
	}
	cancel()
	// New connections are refused once the listener is down; allow a
	// beat for the close to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break
		}
		c2.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The in-flight session still completes.
	db := testDB(t, 1)
	for _, e := range db.Entries() {
		if err := rpcx.WriteJSON(conn, &ingestMsg{Type: msgFragment, Entries: []results.Entry{e}}); err != nil {
			t.Fatalf("fragment during drain: %v", err)
		}
	}
	hash, err := ContentHash(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := rpcx.WriteJSON(conn, &ingestMsg{Type: msgCommit, ContentHash: hash}); err != nil {
		t.Fatal(err)
	}
	reply, err := recvIngest(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("reply during drain: %v", err)
	}
	if reply.Type != msgPublished {
		t.Fatalf("reply: %+v", reply)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeIngest: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after drain")
	}
	mustReadable(t, s, Manifest{RunID: reply.RunID, ContentHash: reply.ContentHash})
}

// TestPublishReplyVerified proves a corrupted published frame cannot
// smuggle a wrong run identity to the caller: the client re-derives
// the run ID from client-known fields and rejects a mismatch.
func TestPublishReplyVerified(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for {
			m, err := recvIngest(br)
			if err != nil {
				return
			}
			if m.Type == msgCommit {
				// Lie about the run ID, as a byte flip on the reply
				// frame could.
				rpcx.WriteJSON(c, &ingestMsg{
					Type: msgPublished, RunID: strings.Repeat("f", 64), ContentHash: m.ContentHash, Seq: 1,
				})
				return
			}
		}
	}()
	_, err = PublishWith(context.Background(), ln.Addr().String(), testManifest("lied-to"), testDB(t, 1),
		PublishOptions{Retries: -1})
	if err == nil || !strings.Contains(err.Error(), "run ID") {
		t.Fatalf("err = %v, want run ID mismatch", err)
	}
}
