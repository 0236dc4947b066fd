// Package netfaults is deterministic, seeded chaos for the distributed
// layer's wire: the network analogue of internal/faults. Where faults
// wraps a core.Machine and injects failures into primitive calls,
// netfaults wraps net.Conn / the rpcx record framing and injects
// failures into frames in flight — per-direction delay, dropped
// connections, frames truncated mid-record, duplicated frames, bit
// flips, and accept-then-reset — so the fleet transport and the store
// ingest path can be proven to survive a hostile network the same way
// the scheduler was proven to survive a hostile machine.
//
// Determinism: every randomized decision comes from a seeded stream.
// Each wrapped connection draws its streams from (plan seed, accept
// index, direction), consumed in frame order, so a fixed (seed, plan,
// traffic) triple injects exactly the same faults at exactly the same
// frames on every run — chaos tests assert exact accounting and exact
// convergence, not distributions. With concurrent connections the
// accept order (and so the seed assignment) can vary, but each
// connection's fault sequence is still a pure function of its index.
//
// Three installation points:
//
//   - Proxy: a standalone frame-level lossy proxy
//     (`lmbench -chaos-net`) that sits between a publisher or fleet
//     coordinator and a daemon, parsing rpcx record marks and faulting
//     whole frames per direction. This is the shape the chaos smoke
//     uses: real processes, real TCP, seeded loss in the middle.
//   - (*Injector).Listener: wraps a daemon's net.Listener, injecting
//     accept-then-reset and wrapping accepted connections.
//   - (*Injector).Conn: wraps one net.Conn, faulting the write side at
//     frame granularity (rpcx.WriteFrame issues exactly one Write per
//     record, so a Write call is a frame).
package netfaults

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected marks connection failures manufactured by the wrapper,
// so tests can tell injected wire faults from real transport errors.
var ErrInjected = errors.New("netfaults: injected wire fault")

// Plan describes what to inject. The frame-fault rates (Delay, Drop,
// Trunc, Dup, Flip) are per frame and drawn from one uniform sample
// per frame, so their sum must not exceed 1; Reset is a separate
// per-accept draw.
type Plan struct {
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
	// these prefixes. Stream names are "accept" (listener resets),
	// "write" (Conn wrapper), and "c2s"/"s2c" (proxy directions);
	// empty targets everything.
	Ops []string
}

// Validate rejects nonsensical plans.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DelayRate", p.DelayRate}, {"DropRate", p.DropRate},
		{"TruncRate", p.TruncRate}, {"DupRate", p.DupRate},
		{"FlipRate", p.FlipRate}, {"ResetRate", p.ResetRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("netfaults: %s %v outside [0,1]", r.name, r.v)
		}
	}
	if sum := p.DelayRate + p.DropRate + p.TruncRate + p.DupRate + p.FlipRate; sum > 1 {
		return fmt.Errorf("netfaults: frame-fault rates sum to %v > 1", sum)
	}
	if p.DelayFor < 0 {
		return errors.New("netfaults: negative delay duration")
	}
	if p.Budget < 0 {
		return fmt.Errorf("netfaults: negative Budget %d", p.Budget)
	}
	return nil
}

// FrameFaultRate is the total per-frame fault probability — the number
// the chaos smoke's "≥10% frame-level faults" bar is measured against.
func (p Plan) FrameFaultRate() float64 {
	return p.DelayRate + p.DropRate + p.TruncRate + p.DupRate + p.FlipRate
}

// normalize fills defaults.
func (p Plan) normalize() Plan {
	if p.DelayFor == 0 {
		p.DelayFor = 5 * time.Millisecond
	}
	return p
}

// ParsePlan parses the CLI plan syntax (the faults.ParsePlan dialect):
// comma-separated key=value pairs, e.g.
//
//	seed=7,delay=0.05,delayfor=5ms,drop=0.03,trunc=0.03,dup=0.04,
//	flip=0.04,reset=0.05,budget=30,ops=c2s;accept
//
// List values use ';' as the separator.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return p, fmt.Errorf("netfaults: plan field %q is not key=value", field)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "delay":
			p.DelayRate, err = strconv.ParseFloat(v, 64)
		case "delayfor":
			p.DelayFor, err = time.ParseDuration(v)
		case "drop":
			p.DropRate, err = strconv.ParseFloat(v, 64)
		case "trunc":
			p.TruncRate, err = strconv.ParseFloat(v, 64)
		case "dup":
			p.DupRate, err = strconv.ParseFloat(v, 64)
		case "flip":
			p.FlipRate, err = strconv.ParseFloat(v, 64)
		case "reset":
			p.ResetRate, err = strconv.ParseFloat(v, 64)
		case "budget":
			p.Budget, err = strconv.Atoi(v)
		case "ops":
			for _, op := range strings.Split(v, ";") {
				if op = strings.TrimSpace(op); op != "" {
					p.Ops = append(p.Ops, op)
				}
			}
		default:
			return p, fmt.Errorf("netfaults: unknown plan key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("netfaults: plan field %q: %w", field, err)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Stats counts what the injector did to the wire.
type Stats struct {
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
func (s Stats) Faults() int {
	return s.Delays + s.Drops + s.Truncs + s.Dups + s.Flips + s.Resets
}

// String renders a one-line summary for chaos reports.
func (s Stats) String() string {
	return fmt.Sprintf("%d conns, %d frames: %d delays, %d drops, %d truncs, %d dups, %d flips, %d resets",
		s.Conns, s.Frames, s.Delays, s.Drops, s.Truncs, s.Dups, s.Flips, s.Resets)
}

// action is one frame's fate.
type action int

const (
	actNone action = iota
	actDelay
	actDrop
	actTrunc
	actDup
	actFlip
)

// Injector owns one plan's fault budget and statistics, shared by
// every connection it wraps. Safe for concurrent use.
type Injector struct {
	plan Plan

	mu    sync.Mutex
	conns int
	stats Stats
}

// New builds an injector for p. The plan should be validated first
// (ParsePlan does); New fills defaults for zero durations.
func New(p Plan) *Injector {
	return &Injector{plan: p.normalize()}
}

// Plan returns the injector's (normalized) plan.
func (j *Injector) Plan() Plan { return j.plan }

// Stats returns a snapshot of the injection counters.
func (j *Injector) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// nextConn assigns the next connection index (the per-connection seed
// input) and counts the connection.
func (j *Injector) nextConn() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := j.conns
	j.conns++
	j.stats.Conns++
	return i
}

// matchOp reports whether the plan targets stream op.
func (j *Injector) matchOp(op string) bool {
	if len(j.plan.Ops) == 0 {
		return true
	}
	for _, p := range j.plan.Ops {
		if strings.HasPrefix(op, p) {
			return true
		}
	}
	return false
}

// budgetLeftLocked reports whether another fault may be injected.
func (j *Injector) budgetLeftLocked() bool {
	return j.plan.Budget == 0 || j.stats.Faults() < j.plan.Budget
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
	x := s.rng.Float64()
	p := s.j.plan
	var act action
	switch {
	case x < p.DelayRate:
		act = actDelay
	case x < p.DelayRate+p.DropRate:
		act = actDrop
	case x < p.DelayRate+p.DropRate+p.TruncRate:
		act = actTrunc
	case x < p.DelayRate+p.DropRate+p.TruncRate+p.DupRate:
		act = actDup
	case x < p.DelayRate+p.DropRate+p.TruncRate+p.DupRate+p.FlipRate:
		act = actFlip
	default:
		act = actNone
	}

	s.j.mu.Lock()
	defer s.j.mu.Unlock()
	s.j.stats.Frames++
	if act == actNone || !s.j.matchOp(s.op) || !s.j.budgetLeftLocked() {
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

// decideReset draws one accept's reset fate from the accept stream.
func (s *stream) decideReset() bool {
	x := s.rng.Float64()
	s.j.mu.Lock()
	defer s.j.mu.Unlock()
	if x >= s.j.plan.ResetRate || !s.j.matchOp(s.op) || !s.j.budgetLeftLocked() {
		return false
	}
	s.j.stats.Resets++
	return true
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
