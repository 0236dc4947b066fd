package netfaults

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/rpcx"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7,delay=0.05,delayfor=8ms,drop=0.1,trunc=0.2,dup=0.03,flip=0.02,reset=0.4,budget=9,ops=c2s;accept")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Seed: 7, DelayRate: 0.05, DelayFor: 8 * time.Millisecond,
		DropRate: 0.1, TruncRate: 0.2, DupRate: 0.03, FlipRate: 0.02,
		ResetRate: 0.4, Budget: 9, Ops: []string{"c2s", "accept"},
	}
	if p.Seed != want.Seed || p.DelayRate != want.DelayRate || p.DelayFor != want.DelayFor ||
		p.DropRate != want.DropRate || p.TruncRate != want.TruncRate || p.DupRate != want.DupRate ||
		p.FlipRate != want.FlipRate || p.ResetRate != want.ResetRate || p.Budget != want.Budget ||
		len(p.Ops) != 2 || p.Ops[0] != "c2s" || p.Ops[1] != "accept" {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if got := p.FrameFaultRate(); got != 0.4 {
		t.Fatalf("FrameFaultRate = %v, want 0.4", got)
	}
	if _, err := ParsePlan("drop=1.5"); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if _, err := ParsePlan("drop=0.6,flip=0.6"); err == nil {
		t.Fatal("rates summing > 1 accepted")
	}
	if _, err := ParsePlan("nonsense=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParsePlan("drop"); err == nil {
		t.Fatal("non key=value field accepted")
	}
	if _, err := ParsePlan("budget=-1"); err == nil {
		t.Fatal("negative budget accepted")
	}
	if p, err := ParsePlan(""); err != nil || p.FrameFaultRate() != 0 {
		t.Fatalf("empty plan: %+v, %v", p, err)
	}
}

// tcpPair returns a connected client/server TCP pair.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	<-done
	if cerr != nil || err != nil {
		t.Fatalf("pair: %v / %v", cerr, err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestConnDropAndBudget(t *testing.T) {
	j := New(Plan{Seed: 1, DropRate: 1, Budget: 1})
	client, server := tcpPair(t)
	c := j.Conn(client)
	if _, err := c.Write([]byte("doomed")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first write err = %v, want ErrInjected", err)
	}
	// Budget exhausted: a fresh wrapped conn now passes writes through.
	client2, server2 := tcpPair(t)
	_ = server
	c2 := j.Conn(client2)
	go io.Copy(io.Discard, server2)
	if _, err := c2.Write([]byte("fine")); err != nil {
		t.Fatalf("post-budget write: %v", err)
	}
	st := j.Stats()
	if st.Drops != 1 || st.Faults() != 1 || st.Conns != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConnDupAndFlip(t *testing.T) {
	// Deterministic single-fault plans: dup=1 duplicates every frame.
	j := New(Plan{Seed: 1, DupRate: 1, Budget: 1})
	client, server := tcpPair(t)
	c := j.Conn(client)
	msg := []byte("hello frame")
	var got bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.CopyN(&got, server, int64(2*len(msg)))
	}()
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	<-done
	if want := append(append([]byte{}, msg...), msg...); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("dup delivered %q", got.Bytes())
	}

	jf := New(Plan{Seed: 1, FlipRate: 1, Budget: 1})
	clientF, serverF := tcpPair(t)
	cf := jf.Conn(clientF)
	buf := make([]byte, len(msg))
	doneF := make(chan struct{})
	go func() {
		defer close(doneF)
		io.ReadFull(serverF, buf)
	}()
	if _, err := cf.Write(msg); err != nil {
		t.Fatal(err)
	}
	<-doneF
	diff := 0
	for i := range msg {
		if msg[i] != buf[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("flip changed %d bytes, want 1 (got %q)", diff, buf)
	}
	if msg[0] != 'h' {
		t.Fatal("flip mutated the caller's buffer")
	}
}

func TestConnTruncate(t *testing.T) {
	j := New(Plan{Seed: 1, TruncRate: 1, Budget: 1})
	client, server := tcpPair(t)
	c := j.Conn(client)
	var frame bytes.Buffer
	if err := rpcx.WriteFrame(&frame, []byte("a full record payload")); err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := rpcx.ReadFrame(bufio.NewReader(server), 0)
		readErr <- err
	}()
	if _, err := c.Write(frame.Bytes()); !errors.Is(err, ErrInjected) {
		t.Fatalf("trunc write err = %v", err)
	}
	if err := <-readErr; err == nil {
		t.Fatal("peer decoded a truncated record")
	}
}

func TestListenerReset(t *testing.T) {
	j := New(Plan{Seed: 1, ResetRate: 1, Budget: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := j.Listener(ln)
	defer fl.Close()
	// Echo server on whatever the listener lets through.
	go func() {
		for {
			c, err := fl.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	// First connection is reset (budget 1). The RST can surface at
	// dial time or at the first read, depending on scheduling.
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err == nil {
		c1.SetReadDeadline(time.Now().Add(2 * time.Second))
		c1.Write([]byte("x"))
		if _, rerr := c1.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("reset connection delivered data")
		}
		c1.Close()
	}
	// Budget exhausted: the second connection is accepted, wrapped,
	// and echoes.
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c2, buf); err != nil || string(buf) != "ok" {
		t.Fatalf("accepted conn: %q, %v", buf, err)
	}
	if st := j.Stats(); st.Resets != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// runProxySession pushes n frames through a proxy to an echo server
// and returns the injector stats and how many echoes came back intact.
func runProxySession(t *testing.T, plan Plan, n int) (Stats, int) {
	t.Helper()
	// Echo server speaking rpcx frames: one reply per session, the
	// session's single request. A request the proxy duplicated is read
	// and dropped rather than echoed a second time — the client closes
	// after its one reply, so whether the proxy got to relay (and
	// count) a second echo would depend on how the teardown raced it,
	// and same-seed sessions could disagree on Stats.Frames.
	srvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvLn.Close()
	go func() {
		for {
			c, err := srvLn.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				r := bufio.NewReader(c)
				f, err := rpcx.ReadFrame(r, 0)
				if err != nil || rpcx.WriteFrame(c, f) != nil {
					return
				}
				_, _ = io.Copy(io.Discard, r) // hold the session open until the proxy ends it
			}()
		}
	}()

	inj := New(plan)
	p := &Proxy{Inj: inj, Target: srvLn.Addr().String(), Logf: t.Logf}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- p.Serve(ctx, pln) }()

	intact := 0
	for i := 0; i < n; i++ {
		func() {
			c, err := net.Dial("tcp", pln.Addr().String())
			if err != nil {
				// An accept-then-reset can surface as a failed dial.
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			msg := []byte("ping-pong payload #x")
			msg[len(msg)-1] = byte('0' + i%10)
			if err := rpcx.WriteFrame(c, msg); err != nil {
				return
			}
			got, err := rpcx.ReadFrame(bufio.NewReader(c), 0)
			if err == nil && bytes.Equal(got, msg) {
				intact++
			}
		}()
	}
	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("proxy serve: %v", err)
	}
	return inj.Stats(), intact
}

func TestProxyCleanRelay(t *testing.T) {
	st, intact := runProxySession(t, Plan{Seed: 42}, 8)
	if intact != 8 {
		t.Fatalf("clean proxy delivered %d/8", intact)
	}
	if st.Faults() != 0 || st.Conns != 8 {
		t.Fatalf("stats = %+v", st)
	}
	// 8 sessions × (1 c2s + 1 s2c) frames minimum.
	if st.Frames < 16 {
		t.Fatalf("frames = %d, want >= 16", st.Frames)
	}
}

func TestProxyChaosThenConverge(t *testing.T) {
	// Heavy chaos with a budget: once the budget drains, every
	// remaining session must succeed.
	plan := Plan{Seed: 3, DropRate: 0.2, TruncRate: 0.2, DupRate: 0.1, FlipRate: 0.1, ResetRate: 0.3, Budget: 6}
	st, intact := runProxySession(t, plan, 40)
	if st.Faults() != 6 {
		t.Fatalf("faults = %d, want budget 6 (stats %+v)", st.Faults(), st)
	}
	// At most one session lost per fault.
	if intact < 40-6 {
		t.Fatalf("intact = %d, want >= 34 (stats %+v)", intact, st)
	}
}

func TestProxyDeterminism(t *testing.T) {
	plan := Plan{Seed: 11, DropRate: 0.15, TruncRate: 0.1, DupRate: 0.1, FlipRate: 0.1, ResetRate: 0.1}
	a, _ := runProxySession(t, plan, 25)
	b, _ := runProxySession(t, plan, 25)
	if a != b {
		t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
	plan.Seed = 12
	c, _ := runProxySession(t, plan, 25)
	if a == c {
		t.Fatalf("different seeds produced identical stats %+v — suspicious", a)
	}
}

func TestOpsFilter(t *testing.T) {
	// Faults restricted to s2c: client→server frames always arrive, so
	// the echo server always echoes; only replies can be lost.
	plan := Plan{Seed: 5, DropRate: 0.5, ResetRate: 0.5, Ops: []string{"s2c"}}
	st, _ := runProxySession(t, plan, 20)
	if st.Resets != 0 {
		t.Fatalf("accept resets fired despite ops filter: %+v", st)
	}
	if st.Drops == 0 {
		t.Fatalf("no s2c drops in 20 sessions at rate 0.5: %+v", st)
	}
}

func TestStreamDeterminism(t *testing.T) {
	j1 := New(Plan{Seed: 9, DropRate: 0.3, FlipRate: 0.3})
	j2 := New(Plan{Seed: 9, DropRate: 0.3, FlipRate: 0.3})
	s1 := j1.newStream("write", 0)
	s2 := j2.newStream("write", 0)
	for i := 0; i < 200; i++ {
		if a, b := s1.decide(), s2.decide(); a != b {
			t.Fatalf("frame %d: %v != %v", i, a, b)
		}
	}
	// Distinct directions on the same conn use distinct streams.
	s3 := j1.newStream("c2s", 0)
	s4 := j1.newStream("s2c", 0)
	same := true
	for i := 0; i < 50; i++ {
		if s3.decide() != s4.decide() {
			same = false
		}
	}
	if same {
		t.Fatal("c2s and s2c streams are identical")
	}
}

func TestWithDeadlinesIdleTimeout(t *testing.T) {
	client, server := tcpPair(t)
	dc := rpcx.WithDeadlines(server, 150*time.Millisecond, 150*time.Millisecond)
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
	_, err := dc.Read(buf)
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
