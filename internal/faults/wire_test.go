package faults

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/rpcx"
)

// TestParseWirePlan covers every key of the wire plan, its refusals,
// and its refusal of the machine plan's keys.
func TestParseWirePlan(t *testing.T) {
	checkParse(t, func(s string) (any, error) { return ParseWirePlan(s) }, []parseCase{
		{"seed=7,delay=0.05,delayfor=8ms,drop=0.1,trunc=0.2,dup=0.03,flip=0.02,reset=0.4,budget=9,ops=c2s;accept", WirePlan{
			Seed: 7, DelayRate: 0.05, DelayFor: 8 * time.Millisecond,
			DropRate: 0.1, TruncRate: 0.2, DupRate: 0.03, FlipRate: 0.02,
			ResetRate: 0.4, Budget: 9, Ops: []string{"c2s", "accept"},
		}},
		// An empty plan is valid (no injection).
		{"", WirePlan{}},
		{"drop=1.5", nil},          // rate out of range
		{"drop=0.6,flip=0.6", nil}, // rates sum past 1
		{"nonsense=1", nil},        // unknown key
		{"drop", nil},              // not key=value
		{"budget=-1", nil},         // negative
		// The reset draw is its own: it does not count against the
		// frame-fault rates' sum.
		{"drop=0.6,reset=0.6", WirePlan{DropRate: 0.6, ResetRate: 0.6}},
	}, []string{"err=0", "stall=0", "spike=0", "stallfor=1s", "spikefor=1ms", "failn=0", "unsupported=disk"})

	p, _ := ParseWirePlan("delay=0.05,drop=0.1,trunc=0.2,dup=0.03,flip=0.02,reset=0.4")
	if got := p.FrameFaultRate(); got != 0.4 {
		t.Errorf("FrameFaultRate = %v, want 0.4", got)
	}
	// A zero delay takes its default.
	if w := (WirePlan{}).normalize(); w.DelayFor != 5*time.Millisecond {
		t.Errorf("wire default delay %v, want 5ms", w.DelayFor)
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
	j := NewInjector(WirePlan{Seed: 1, DropRate: 1, Budget: 1})
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
	j := NewInjector(WirePlan{Seed: 1, DupRate: 1, Budget: 1})
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

	jf := NewInjector(WirePlan{Seed: 1, FlipRate: 1, Budget: 1})
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
	j := NewInjector(WirePlan{Seed: 1, TruncRate: 1, Budget: 1})
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

// bufConn is a net.Conn whose writes land in w; nothing else of it is
// used.
type bufConn struct {
	net.Conn
	w io.Writer
}

func (c *bufConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// TestConnFlipSparesRecordMark: a frame written through Conn under a
// flip reaches its peer as the same record one payload bit off. A flip
// that hit the record mark would stall or misframe the peer instead of
// handing it the corruption an end-to-end content hash must catch.
func TestConnFlipSparesRecordMark(t *testing.T) {
	payload := []byte("twenty-nine bytes of payload!")
	for seed := int64(1); seed <= 200; seed++ {
		var wire bytes.Buffer
		c := NewInjector(WirePlan{Seed: seed, FlipRate: 1, Budget: 1}).Conn(&bufConn{w: &wire})
		if err := rpcx.WriteFrame(c, payload); err != nil {
			t.Fatal(err)
		}
		got, err := rpcx.ReadFrame(&wire, 0)
		if err != nil || len(got) != len(payload) {
			t.Errorf("seed %d: peer read %q, %v; want the payload one bit off", seed, got, err)
			continue
		}
		off := 0
		for i := range got {
			off += bits.OnesCount8(got[i] ^ payload[i])
		}
		if off != 1 {
			t.Errorf("seed %d: payload %d bits off, want 1", seed, off)
		}
	}
}

// TestAcceptReset: the accept hook, installed as a session server's
// WrapConn, resets the first connection (budget 1) and lets the next
// through wrapped; both count as connections.
func TestAcceptReset(t *testing.T) {
	j := NewInjector(WirePlan{Seed: 1, ResetRate: 1, Budget: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Echo server on whatever the accept hook lets through.
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- rpcx.Serve(ctx, ln, rpcx.ServeOptions{WrapConn: j.Accept}, func(_ context.Context, s *rpcx.Session) error {
			s.SetBusy(false)
			_, err := io.Copy(s.Conn, s.Conn)
			return err
		})
	}()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
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
	if st := j.Stats(); st.Resets != 1 || st.Conns != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// runProxySession pushes n frames through a proxy to an echo server
// and returns the injector stats and how many echoes came back intact.
func runProxySession(t *testing.T, plan WirePlan, n int) (WireStats, int) {
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

	inj := NewInjector(plan)
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
	st, intact := runProxySession(t, WirePlan{Seed: 42}, 8)
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
	plan := WirePlan{Seed: 3, DropRate: 0.2, TruncRate: 0.2, DupRate: 0.1, FlipRate: 0.1, ResetRate: 0.3, Budget: 6}
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
	plan := WirePlan{Seed: 11, DropRate: 0.15, TruncRate: 0.1, DupRate: 0.1, FlipRate: 0.1, ResetRate: 0.1}
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
	plan := WirePlan{Seed: 5, DropRate: 0.5, ResetRate: 0.5, Ops: []string{"s2c"}}
	st, _ := runProxySession(t, plan, 20)
	if st.Resets != 0 {
		t.Fatalf("accept resets fired despite ops filter: %+v", st)
	}
	if st.Drops == 0 {
		t.Fatalf("no s2c drops in 20 sessions at rate 0.5: %+v", st)
	}
}

// TestWireDrawContract pins the wire point's determinism: a stream is
// seeded by (seed, connection index, direction) and draws once per
// frame whatever the op filter or the budget says, and a flip draws
// its two positions.
func TestWireDrawContract(t *testing.T) {
	// The seed derivation is frozen: another would move every fault.
	if a, b := streamSeed(7, 3, "c2s"), streamSeed(1, 0, "accept"); a != 227825273 || b != 156277514 {
		t.Fatalf("streamSeed moved: %d, %d", a, b)
	}
	payload := []byte("twenty-nine bytes of payload!")
	var rec bytes.Buffer
	if err := rpcx.WriteFrame(&rec, payload); err != nil {
		t.Fatal(err)
	}
	plan := WirePlan{Seed: 7, DropRate: 0.2, FlipRate: 0.4, Budget: 4, Ops: []string{"c2s"}}
	for _, op := range []string{"c2s", "s2c"} { // targeted, then filtered out
		j := NewInjector(plan)
		s := j.newStream(op, 3)
		ref := rand.New(rand.NewSource(streamSeed(plan.Seed, 3, op)))
		injected := 0
		for frame := 0; frame < 30; frame++ {
			x := ref.Float64()
			want := actNone
			if op == "c2s" && injected < plan.Budget {
				switch {
				case x < plan.DropRate:
					want = actDrop
				case x < plan.DropRate+plan.FlipRate:
					want = actFlip
				}
			}
			wantBytes := rec.Bytes()
			switch want {
			case actDrop:
				injected++
				wantBytes = nil
			case actFlip:
				injected++
				wantBytes = append([]byte(nil), wantBytes...)
				i, bit := ref.Intn(len(payload)), ref.Intn(8)
				wantBytes[4+i] ^= 1 << bit
			}
			act := s.decide()
			var got bytes.Buffer
			_, _ = s.apply(&got, rec.Bytes(), act)
			if act != want || !bytes.Equal(got.Bytes(), wantBytes) {
				t.Fatalf("%s frame %d: %v delivering %q, want %v delivering %q", op, frame, act, got.Bytes(), want, wantBytes)
			}
		}
		if s.rng.Float64() != ref.Float64() {
			t.Fatalf("%s: the stream drew other than once per frame and twice per flip", op)
		}
	}
	j := NewInjector(plan)
	if j.accept.Float64() != rand.New(rand.NewSource(streamSeed(plan.Seed, 0, "accept"))).Float64() {
		t.Fatal("the accept stream is not seeded by (seed, 0, \"accept\")")
	}
}

func TestStreamDeterminism(t *testing.T) {
	j1 := NewInjector(WirePlan{Seed: 9, DropRate: 0.3, FlipRate: 0.3})
	j2 := NewInjector(WirePlan{Seed: 9, DropRate: 0.3, FlipRate: 0.3})
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
