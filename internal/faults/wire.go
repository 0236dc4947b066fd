package faults

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/rpcx"
)

// WirePlan describes what to inject into wire frames. The frame-fault
// rates (Delay, Drop, Trunc, Dup, Flip) are per frame and drawn from one
// uniform sample per frame, so their sum must not exceed 1; Reset is a
// separate per-accept draw.
type WirePlan struct {
	// Seed initializes the fault streams; connection i, direction d
	// derives its stream from (Seed, i, d).
	Seed int64
	// DelayRate is the probability a frame is held for DelayFor before
	// delivery (latency, not loss).
	DelayRate float64
	// DelayFor is the injected frame delay; default 5ms.
	DelayFor time.Duration
	// DropRate is the probability the connection is torn down instead
	// of delivering the frame — the peer sees an abrupt close.
	DropRate float64
	// TruncRate is the probability the frame is truncated mid-record:
	// the record header promises the full length, a prefix of the
	// payload is delivered, and the connection closes — the peer's
	// framing layer sees a short read.
	TruncRate float64
	// DupRate is the probability the frame is delivered twice.
	DupRate float64
	// FlipRate is the probability one byte of the payload has a bit
	// flipped before delivery — the corruption a checksum or an
	// end-to-end content hash must catch.
	FlipRate float64
	// ResetRate is the probability an accepted connection is reset
	// immediately (SO_LINGER 0 close — the peer sees ECONNRESET), the
	// accept-then-reset shape of an overloaded or crashing daemon.
	ResetRate float64
	// Budget caps the total number of injected faults across all
	// connections (resets included); 0 means unlimited. A budget
	// guarantees a chaotic exchange still converges.
	Budget int
	// Ops restricts injection to streams whose name matches one of
	// these prefixes. Stream names are "accept" (the accept hook),
	// "write" (Conn), and "c2s"/"s2c" (proxy directions); empty targets
	// everything.
	Ops []string
}

// keys is the wire point's plan key table (see parse).
func (p *WirePlan) keys() map[string]any {
	return map[string]any{
		"seed": &p.Seed, "delay": &p.DelayRate, "delayfor": &p.DelayFor, "drop": &p.DropRate,
		"trunc": &p.TruncRate, "dup": &p.DupRate, "flip": &p.FlipRate, "reset": &p.ResetRate,
		"budget": &p.Budget, "ops": &p.Ops,
	}
}

// Validate rejects nonsensical plans.
func (p WirePlan) Validate() error { return validate(p.keys(), p.FrameFaultRate()) }

// FrameFaultRate is the total per-frame fault probability — the number
// the chaos smoke's "≥10% frame-level faults" bar is measured against.
func (p WirePlan) FrameFaultRate() float64 {
	return p.DelayRate + p.DropRate + p.TruncRate + p.DupRate + p.FlipRate
}

// normalize fills defaults.
func (p WirePlan) normalize() WirePlan {
	if p.DelayFor == 0 {
		p.DelayFor = 5 * time.Millisecond
	}
	return p
}

// ParseWirePlan parses the wire point's plan, e.g.
//
//	seed=7,delay=0.05,delayfor=5ms,drop=0.03,trunc=0.03,dup=0.04,
//	flip=0.04,reset=0.05,budget=30,ops=c2s;accept
func ParseWirePlan(s string) (WirePlan, error) {
	var p WirePlan
	if err := parse(s, p.keys()); err != nil {
		return p, err
	}
	return p, p.Validate()
}

// WireStats counts what the injector did to the wire.
type WireStats struct {
	// Conns counts connections that passed through the injector
	// (proxied, wrapped, or reset at accept).
	Conns int
	// Frames counts frames that reached a fault decision.
	Frames int
	Delays int
	Drops  int
	Truncs int
	Dups   int
	Flips  int
	Resets int
}

// Faults returns the total number of injected faults.
func (s WireStats) Faults() int {
	return s.Delays + s.Drops + s.Truncs + s.Dups + s.Flips + s.Resets
}

// String renders a one-line summary for chaos reports.
func (s WireStats) String() string {
	return fmt.Sprintf("%d conns, %d frames: %d delays, %d drops, %d truncs, %d dups, %d flips, %d resets",
		s.Conns, s.Frames, s.Delays, s.Drops, s.Truncs, s.Dups, s.Flips, s.Resets)
}

// action is one frame's fate. The faults follow the order of the
// frame-fault rates in decide's draw.
type action int

const (
	actNone action = iota
	actDelay
	actDrop
	actTrunc
	actDup
	actFlip
)

func (a action) String() string {
	return [...]string{"pass", "delay", "drop", "truncate", "duplicate", "flip"}[a]
}

// Injector owns one wire plan's fault budget and statistics, shared by
// every connection it wraps. Safe for concurrent use.
type Injector struct {
	plan WirePlan

	mu     sync.Mutex
	accept *rand.Rand // the "accept" stream, drawn in accept order
	stats  WireStats
}

// NewInjector builds an injector for p. The plan should be validated
// first (ParseWirePlan does); NewInjector fills defaults for zero
// durations.
func NewInjector(p WirePlan) *Injector {
	p = p.normalize()
	return &Injector{plan: p, accept: rand.New(rand.NewSource(streamSeed(p.Seed, 0, "accept")))}
}

// Stats returns a snapshot of the injection counters.
func (j *Injector) Stats() WireStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// allowLocked reports whether the plan lets a fault drawn on stream op
// through: the op filter targets op and the budget has room. j.mu is
// held.
func (j *Injector) allowLocked(op string) bool {
	return (len(j.plan.Ops) == 0 || matchAny(j.plan.Ops, op)) && budgetLeft(j.plan.Budget, j.stats.Faults())
}

// Accept is the injector's accept hook: it draws each accepted
// connection's reset fate from the "accept" stream, in accept order. A
// reset connection is counted, closed with SO_LINGER 0 so its peer
// sees a hard RST rather than an orderly FIN — the accept-then-reset
// shape of a daemon dying under load — and Accept returns nil; any
// other connection is returned wrapped by Conn.
// rpcx.ServeOptions.WrapConn takes Accept as it is.
func (j *Injector) Accept(c net.Conn) net.Conn {
	j.mu.Lock()
	reset := j.accept.Float64() < j.plan.ResetRate && j.allowLocked("accept")
	if reset {
		j.stats.Resets++
		j.stats.Conns++
	}
	j.mu.Unlock()
	if !reset {
		return j.Conn(c)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
	return nil
}

// Conn wraps c with write-side fault injection at frame granularity.
// rpcx's record writer issues exactly one Write call per record, so a
// Write call is the frame boundary: a dropped frame tears the
// connection down before the bytes leave, a truncated frame delivers a
// prefix and closes, a duplicated frame is written twice, a flipped
// frame has one bit corrupted in flight (see apply). Reads pass through
// untouched — wrap both endpoints (or use the Proxy) for per-direction
// faults.
func (j *Injector) Conn(c net.Conn) net.Conn {
	j.mu.Lock()
	i := j.stats.Conns
	j.stats.Conns++
	j.mu.Unlock()
	return &faultConn{Conn: c, index: i, s: j.newStream("write", i)}
}

// faultConn is a connection Conn wrapped; index is its connection
// index, which seeds its fault streams.
type faultConn struct {
	net.Conn
	index int
	s     *stream
}

func (c *faultConn) Write(p []byte) (int, error) {
	n, err := c.s.apply(c.Conn, p, c.s.decide())
	if errors.Is(err, ErrInjected) {
		_ = c.Conn.Close()
	}
	return n, err
}

// stream is one direction's deterministic fault stream: a private rand
// seeded by (plan seed, connection index, direction name), consumed in
// frame order by exactly one goroutine.
type stream struct {
	j   *Injector
	op  string
	rng *rand.Rand
}

// streamSeed mixes the plan seed with the connection index and the
// direction name (FNV-1a over op) into one stream seed.
func streamSeed(seed int64, conn int, op string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(op); i++ {
		h ^= uint64(op[i])
		h *= 1099511628211
	}
	return seed + int64(conn)*1000003 + int64(h&0x7fffffff)
}

func (j *Injector) newStream(op string, conn int) *stream {
	return &stream{j: j, op: op, rng: rand.New(rand.NewSource(streamSeed(j.plan.Seed, conn, op)))}
}

// decide draws one frame's fate. The draw is consumed whether or not
// the op filter or budget allows the fault, so filtered streams stay
// deterministic relative to unfiltered ones.
func (s *stream) decide() action {
	p := s.j.plan
	// pick's -1, no fault, lands on actNone.
	act := actDelay + action(pick(s.rng.Float64(), p.DelayRate, p.DropRate, p.TruncRate, p.DupRate, p.FlipRate))

	s.j.mu.Lock()
	defer s.j.mu.Unlock()
	s.j.stats.Frames++
	if act == actNone || !s.j.allowLocked(s.op) {
		return actNone
	}
	switch act {
	case actDelay:
		s.j.stats.Delays++
	case actDrop:
		s.j.stats.Drops++
	case actTrunc:
		s.j.stats.Truncs++
	case actDup:
		s.j.stats.Dups++
	case actFlip:
		s.j.stats.Flips++
	}
	return act
}

// apply delivers one frame to dst under its fate act: the frame-fault
// applier Conn and the Proxy share. rec is what one Write carries.
// When rec is exactly one final record, as rpcx.WriteFrame writes it,
// its record mark is never faulted: a flip corrupts one bit of the
// payload, and a truncation delivers the mark and a prefix of the
// payload. Other writes are faulted anywhere. A drop or a truncation
// returns ErrInjected, and the caller closes the connection so the
// peer sees an abrupt close or a short read.
func (s *stream) apply(dst io.Writer, rec []byte, act action) (int, error) {
	mark := 0
	if payload, ok := rpcx.FramePayload(rec); ok {
		mark = len(rec) - len(payload)
	}
	switch act {
	case actDelay:
		time.Sleep(s.j.plan.DelayFor)
	case actDrop:
		return 0, fmt.Errorf("%w: connection dropped", ErrInjected)
	case actTrunc:
		// The caller closes the connection whatever this write returns.
		_, _ = dst.Write(rec[:mark+(len(rec)-mark)/2])
		return 0, fmt.Errorf("%w: frame truncated", ErrInjected)
	case actDup:
		if n, err := dst.Write(rec); err != nil {
			return n, err
		}
	case actFlip:
		rec = append([]byte(nil), rec...)
		s.flipByte(rec[mark:])
	}
	return dst.Write(rec)
}

// flipByte flips one pseudo-random bit of one pseudo-random byte of p
// (in place), drawn from the stream so corruption position is as
// deterministic as its occurrence.
func (s *stream) flipByte(p []byte) {
	if len(p) == 0 {
		return
	}
	i := s.rng.Intn(len(p))
	bit := uint(s.rng.Intn(8))
	p[i] ^= 1 << bit
}
