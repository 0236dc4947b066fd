package netfaults

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"sync"
	"time"

	"repro/internal/rpcx"
)

// Proxy is a frame-level lossy TCP proxy: it accepts connections,
// dials Target for each, and pumps rpcx record-marked frames in both
// directions through the injector. Because it parses the record marks
// it can fault whole protocol frames — truncate exactly mid-record,
// duplicate or corrupt exactly one message — independently per
// direction ("c2s" client→server, "s2c" server→client; accept-then-
// reset under "accept"). This is the chaos smoke's weapon: real
// processes on both sides, seeded loss in the middle.
type Proxy struct {
	Inj    *Injector
	Target string
	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)
}

func (p *Proxy) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

// proxyConn is an accepted client connection and its connection index,
// which seeds its c2s and s2c fault streams.
type proxyConn struct {
	net.Conn
	index int
}

// Serve accepts on ln until ctx is cancelled, proxying each connection
// to p.Target with injected faults, through rpcx.Serve. A connection's
// reset decision and index are taken on the accept path, in accept
// order, so a seed replays the same faults on the same connections. A
// relay is never busy: cancel cuts every relay at once. Returns nil on
// cancellation.
func (p *Proxy) Serve(ctx context.Context, ln net.Listener) error {
	accept := p.Inj.newStream("accept", 0)
	o := rpcx.ServeOptions{
		// No deadlines: a relay's peers time their own session out, and
		// the session's Conn stays the *proxyConn WrapConn returned.
		IdleTimeout: -1, WriteTimeout: -1,
		WrapConn: func(c net.Conn) net.Conn {
			if accept.decideReset() {
				p.Inj.nextConn()
				p.logf("netfaults: proxy reset %s at accept", c.RemoteAddr())
				reset(c)
				return nil
			}
			return &proxyConn{Conn: c, index: p.Inj.nextConn()}
		},
	}
	return rpcx.Serve(ctx, ln, o, func(_ context.Context, s *rpcx.Session) error {
		s.SetBusy(false)
		p.relay(s.Conn.(*proxyConn))
		return nil
	})
}

// relay dials the target and pumps both directions until either side
// fails or a fault tears the pair down.
func (p *Proxy) relay(client *proxyConn) {
	defer client.Close()
	server, err := net.DialTimeout("tcp", p.Target, 10*time.Second)
	if err != nil {
		p.logf("netfaults: proxy dial %s: %v", p.Target, err)
		return
	}
	defer server.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pump(p.Inj.newStream("c2s", client.index), client, server)
	}()
	go func() {
		defer wg.Done()
		p.pump(p.Inj.newStream("s2c", client.index), server, client)
	}()
	wg.Wait()
}

// pump relays record-marked frames from src to dst, applying the
// stream's fate to each. Any fault that severs the flow (drop, trunc,
// relay error) closes both conns so the peers see it promptly.
func (p *Proxy) pump(s *stream, src, dst net.Conn) {
	r := bufio.NewReader(src)
	kill := func() { src.Close(); dst.Close() }
	for {
		frame, err := rpcx.ReadFrame(r, rpcx.MaxMessageBytes)
		if err != nil {
			kill()
			return
		}
		switch s.decide() {
		case actDelay:
			p.logf("netfaults: proxy %s delay %v", s.op, s.j.plan.DelayFor)
			time.Sleep(s.j.plan.DelayFor)
		case actDrop:
			p.logf("netfaults: proxy %s drop frame (%d bytes), tearing down", s.op, len(frame))
			kill()
			return
		case actTrunc:
			p.logf("netfaults: proxy %s truncate frame (%d bytes)", s.op, len(frame))
			writeTruncated(dst, frame)
			kill()
			return
		case actDup:
			p.logf("netfaults: proxy %s duplicate frame (%d bytes)", s.op, len(frame))
			if err := rpcx.WriteFrame(dst, frame); err != nil {
				kill()
				return
			}
		case actFlip:
			p.logf("netfaults: proxy %s flip byte in frame (%d bytes)", s.op, len(frame))
			s.flipByte(frame)
		}
		if err := rpcx.WriteFrame(dst, frame); err != nil {
			kill()
			return
		}
	}
}

// writeTruncated sends a record header promising the full frame but
// delivers only a prefix — the peer's framing layer blocks on the
// missing bytes until the connection closes under it and ReadFull
// reports an unexpected EOF mid-record.
func writeTruncated(dst net.Conn, frame []byte) {
	var rec bytes.Buffer
	_ = rpcx.WriteFrame(&rec, frame)
	dst.Write(rec.Bytes()[:4+len(frame)/2])
}
