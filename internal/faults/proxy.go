package faults

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

// Serve accepts on ln until ctx is cancelled, proxying each connection
// to p.Target with injected faults, through rpcx.Serve. A connection's
// reset decision and index are taken by the injector's accept hook, in
// accept order, so a seed replays the same faults on the same
// connections. A relay is never busy: cancel cuts every relay at once.
// Returns nil on cancellation.
func (p *Proxy) Serve(ctx context.Context, ln net.Listener) error {
	o := rpcx.ServeOptions{
		// No deadlines: a relay's peers time their own session out, and
		// the session's Conn stays the one the accept hook returned.
		IdleTimeout: -1, WriteTimeout: -1,
		WrapConn: func(c net.Conn) net.Conn {
			fc := p.Inj.Accept(c)
			if fc == nil {
				p.logf("faults: proxy reset %s at accept", c.RemoteAddr())
			}
			return fc
		},
	}
	return rpcx.Serve(ctx, ln, o, func(_ context.Context, s *rpcx.Session) error {
		s.SetBusy(false)
		p.relay(s.Conn.(*faultConn))
		return nil
	})
}

// relay dials the target and pumps both directions of the accepted
// connection until either side fails or a fault tears the pair down.
// The pumps fault frames on the c2s and s2c streams of the connection's
// index and relay through the raw connection beneath the accept hook's
// wrapper, whose own write stream never draws.
func (p *Proxy) relay(accepted *faultConn) {
	client := accepted.Conn
	defer client.Close()
	server, err := net.DialTimeout("tcp", p.Target, 10*time.Second)
	if err != nil {
		p.logf("faults: proxy dial %s: %v", p.Target, err)
		return
	}
	defer server.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pump(p.Inj.newStream("c2s", accepted.index), client, server)
	}()
	go func() {
		defer wg.Done()
		p.pump(p.Inj.newStream("s2c", accepted.index), server, client)
	}()
	wg.Wait()
}

// pump relays record-marked frames from src to dst, applying the
// stream's fate to each. Any fault that severs the flow (drop, trunc,
// relay error) closes both conns so the peers see it promptly.
func (p *Proxy) pump(s *stream, src, dst net.Conn) {
	defer func() { src.Close(); dst.Close() }()
	r := bufio.NewReader(src)
	for {
		frame, err := rpcx.ReadFrame(r, rpcx.MaxMessageBytes)
		if err != nil {
			return
		}
		var rec bytes.Buffer
		_ = rpcx.WriteFrame(&rec, frame) // a bytes.Buffer write cannot fail
		act := s.decide()
		if act != actNone {
			p.logf("faults: proxy %s %s frame (%d bytes)", s.op, act, len(frame))
		}
		if _, err := s.apply(dst, rec.Bytes(), act); err != nil {
			return
		}
	}
}
