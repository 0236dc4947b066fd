package lmbench_test

// The chaos version of the golden store contract: the committed
// database is published through a deterministic lossy proxy to a store
// daemon that is hard-killed mid-ingest and restarted on the same
// address with torn-write debris in its directory — and the store must
// still converge to exactly one run whose object is byte-identical to
// results/simulated.db, with a clean scrub. This is the in-process
// twin of scripts/chaos_smoke.sh (which does the same with real
// processes and kill -9).

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	lmbench "repro"
	"repro/internal/faults"
	"repro/internal/results"
)

// killerConn hard-kills the daemon after `after` bytes of one session
// have been read: the connection is reset (linger 0) and the kill
// callback tears the whole daemon down, so the publisher sees exactly
// what a kill -9 mid-ingest produces.
type killerConn struct {
	net.Conn
	after int
	kill  func()
	read  int
	once  sync.Once
}

func (k *killerConn) Read(p []byte) (int, error) {
	n, err := k.Conn.Read(p)
	k.read += n
	if k.read >= k.after {
		k.once.Do(func() {
			if tc, ok := k.Conn.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
			_ = k.Conn.Close()
			k.kill()
		})
	}
	return n, err
}

func TestGoldenChaosPublishConverges(t *testing.T) {
	raw, err := os.ReadFile("results/simulated.db")
	if err != nil {
		t.Fatal(err)
	}
	db, err := results.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	manifest := lmbench.Manifest{
		Label:       "golden-chaos",
		Machines:    db.Machines(),
		Options:     "lmreport-defaults",
		CodeVersion: "golden",
	}
	dir := t.TempDir()

	// Daemon #1: doomed. Its sessions die with a reset once 40KB of the
	// ~100KB publish has landed — mid-fragment stream, before commit.
	s1, err := lmbench.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	daemonAddr := ln1.Addr().String()
	ctx1, kill1 := context.WithCancel(context.Background())
	defer kill1()
	done1 := make(chan error, 1)
	go func() {
		done1 <- lmbench.ServeStoreIngestWith(ctx1, ln1, s1, lmbench.IngestOptions{
			DrainTimeout: time.Nanosecond, // a kill grants no drain
			Logf:         t.Logf,
			WrapConn: func(c net.Conn) net.Conn {
				return &killerConn{Conn: c, after: 40 << 10, kill: kill1}
			},
		})
	}()

	// Daemon #2 takes over the same address after #1 dies, exactly as
	// serveStore would on restart: scrub the directory first — the kill
	// left torn-write debris behind — then serve.
	restarted := make(chan struct{})
	ctx2, stop2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		defer close(restarted)
		if err := <-done1; err != nil {
			t.Errorf("doomed daemon: %v", err)
		}
		// The kind of debris a kill -9 mid-write leaves.
		if err := os.WriteFile(filepath.Join(dir, "objects", ".tmp-killed"), []byte("half a wri"), 0o644); err != nil {
			t.Error(err)
			return
		}
		s2, err := lmbench.OpenStore(dir)
		if err != nil {
			t.Error(err)
			return
		}
		rep, err := s2.Scrub()
		if err != nil {
			t.Errorf("startup scrub: %v", err)
			return
		}
		if rep.Partials != 1 || len(rep.CorruptObjects) != 0 || len(rep.CorruptManifests) != 0 {
			t.Errorf("startup scrub after kill: %+v", rep)
		}
		var ln2 net.Listener
		for i := 0; i < 50; i++ {
			if ln2, err = net.Listen("tcp", daemonAddr); err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			t.Errorf("rebind %s: %v", daemonAddr, err)
			return
		}
		go func() {
			done2 <- lmbench.ServeStoreIngestWith(ctx2, ln2, s2, lmbench.IngestOptions{Logf: t.Logf})
		}()
	}()

	// The lossy proxy in front of whichever daemon is alive: ≥10%
	// frame-level fault rate, seeded, budgeted so chaos ends and the
	// retries converge.
	plan := faults.WirePlan{Seed: 42, DropRate: 0.08, TruncRate: 0.04, DupRate: 0.03, FlipRate: 0.03, Budget: 4}
	if plan.FrameFaultRate() < 0.10 {
		t.Fatalf("plan fault rate %.2f < 0.10", plan.FrameFaultRate())
	}
	inj := faults.NewInjector(plan)
	proxy := &faults.Proxy{Inj: inj, Target: daemonAddr, Logf: t.Logf}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pctx, pstop := context.WithCancel(context.Background())
	pdone := make(chan error, 1)
	go func() { pdone <- proxy.Serve(pctx, pln) }()
	defer func() {
		pstop()
		if err := <-pdone; err != nil {
			t.Errorf("proxy: %v", err)
		}
	}()

	// Publish through the chaos: wire faults until the budget drains,
	// one daemon death mid-ingest, a restart — the retry loop must land
	// the run regardless.
	pub := func(label string) lmbench.Manifest {
		m, err := lmbench.PublishRunWith(context.Background(), pln.Addr().String(), manifest, db,
			lmbench.PublishOptions{
				Retries: 15,
				Backoff: 10 * time.Millisecond,
				OnRetry: func(n int, err error) { t.Logf("%s publish retry %d: %v", label, n, err) },
			})
		if err != nil {
			t.Fatalf("%s publish never converged: %v (faults: %s)", label, err, inj.Stats())
		}
		return m
	}
	first := pub("first")
	<-restarted // the run can only have landed on the surviving daemon

	// A second publisher (the other half of a fleet both of whose
	// workers publish the same deterministic result) dedupes onto the
	// same run.
	second := pub("second")
	if second.RunID != first.RunID {
		t.Fatalf("publishes diverged: %s vs %s", first.RunID, second.RunID)
	}

	stop2()
	if err := <-done2; err != nil {
		t.Fatalf("surviving daemon: %v", err)
	}

	// Exactly one run, byte-identical to the committed golden file, and
	// nothing corrupt on disk.
	s, err := lmbench.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].RunID != first.RunID {
		t.Fatalf("store holds %d runs, want exactly the published one", len(runs))
	}
	obj, err := s.Object(first.ContentHash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obj, raw) {
		t.Fatalf("stored object differs from results/simulated.db (%d vs %d bytes)", len(obj), len(raw))
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("final scrub: %+v", rep)
	}
}
