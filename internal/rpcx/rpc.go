package rpcx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// RPC message constants (RFC 1831 subset).
const (
	rpcVersion = 2

	msgCall  = 0
	msgReply = 1

	replyAccepted = 0
	replyDenied   = 1

	acceptSuccess     = 0
	acceptProgUnavail = 1
	acceptProcUnavail = 3
	acceptGarbageArgs = 4
	acceptSystemErr   = 5
)

// Errors surfaced to callers.
var (
	ErrProgUnavailable = errors.New("rpcx: program unavailable")
	ErrProcUnavailable = errors.New("rpcx: procedure unavailable")
	ErrGarbageArgs     = errors.New("rpcx: garbage arguments")
	ErrSystemError     = errors.New("rpcx: server system error")
	ErrDenied          = errors.New("rpcx: call denied")
	ErrBadMessage      = errors.New("rpcx: malformed message")
)

// call is a decoded CALL message.
type call struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	Args []byte
}

// encodeCall builds the wire form of a CALL with AUTH_NULL credentials.
func encodeCall(e *Encoder, xid, prog, vers, proc uint32, args []byte) {
	e.Reset()
	e.Uint32(xid)
	e.Uint32(msgCall)
	e.Uint32(rpcVersion)
	e.Uint32(prog)
	e.Uint32(vers)
	e.Uint32(proc)
	e.Uint32(0) // cred flavor AUTH_NULL
	e.Uint32(0) // cred length
	e.Uint32(0) // verf flavor
	e.Uint32(0) // verf length
	e.buf = append(e.buf, args...)
}

// decodeCall parses a CALL message.
func decodeCall(p []byte) (call, error) {
	d := NewDecoder(p)
	var c call
	var err error
	if c.XID, err = d.Uint32(); err != nil {
		return c, ErrBadMessage
	}
	mtype, err := d.Uint32()
	if err != nil || mtype != msgCall {
		return c, ErrBadMessage
	}
	rvers, err := d.Uint32()
	if err != nil || rvers != rpcVersion {
		return c, ErrBadMessage
	}
	if c.Prog, err = d.Uint32(); err != nil {
		return c, ErrBadMessage
	}
	if c.Vers, err = d.Uint32(); err != nil {
		return c, ErrBadMessage
	}
	if c.Proc, err = d.Uint32(); err != nil {
		return c, ErrBadMessage
	}
	// Credentials and verifier: flavor + opaque body, both skipped.
	for i := 0; i < 2; i++ {
		if _, err = d.Uint32(); err != nil {
			return c, ErrBadMessage
		}
		if _, err = d.Opaque(400); err != nil {
			return c, ErrBadMessage
		}
	}
	c.Args = p[len(p)-d.Remaining():]
	return c, nil
}

// encodeReply builds an accepted reply with the given accept status.
func encodeReply(e *Encoder, xid uint32, stat uint32, data []byte) {
	e.Reset()
	e.Uint32(xid)
	e.Uint32(msgReply)
	e.Uint32(replyAccepted)
	e.Uint32(0) // verf flavor
	e.Uint32(0) // verf length
	e.Uint32(stat)
	e.buf = append(e.buf, data...)
}

// decodeReply parses a reply and returns the result payload.
func decodeReply(p []byte, wantXID uint32) ([]byte, error) {
	d := NewDecoder(p)
	xid, err := d.Uint32()
	if err != nil {
		return nil, ErrBadMessage
	}
	if xid != wantXID {
		return nil, fmt.Errorf("rpcx: xid %d, want %d: %w", xid, wantXID, ErrBadMessage)
	}
	mtype, err := d.Uint32()
	if err != nil || mtype != msgReply {
		return nil, ErrBadMessage
	}
	rstat, err := d.Uint32()
	if err != nil {
		return nil, ErrBadMessage
	}
	if rstat == replyDenied {
		return nil, ErrDenied
	}
	if _, err = d.Uint32(); err != nil { // verf flavor
		return nil, ErrBadMessage
	}
	if _, err = d.Opaque(400); err != nil { // verf body
		return nil, ErrBadMessage
	}
	astat, err := d.Uint32()
	if err != nil {
		return nil, ErrBadMessage
	}
	switch astat {
	case acceptSuccess:
		return p[len(p)-d.Remaining():], nil
	case acceptProgUnavail:
		return nil, ErrProgUnavailable
	case acceptProcUnavail:
		return nil, ErrProcUnavailable
	case acceptGarbageArgs:
		return nil, ErrGarbageArgs
	default:
		return nil, ErrSystemError
	}
}

// Record marking (RFC 1831 §10): each TCP record is preceded by a
// 32-bit header whose top bit marks the final fragment.

const lastFragment = 1 << 31

// writeRecord sends one record-marked message. Header and payload go
// out in a single Write so a record is one syscall on an unbuffered
// conn and — load-bearing for the wire-fault injector, faults.Injector
// — one Write call is exactly one frame.
func writeRecord(w io.Writer, p []byte) error {
	buf := make([]byte, 4+len(p))
	binary.BigEndian.PutUint32(buf, uint32(len(p))|lastFragment)
	copy(buf[4:], p)
	_, err := w.Write(buf)
	return err
}

// readRecord receives one message, reassembling fragments. maxBytes
// bounds the total size.
func readRecord(r io.Reader, maxBytes int) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	var out []byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		h := binary.BigEndian.Uint32(hdr[:])
		n := int(h &^ lastFragment)
		if len(out)+n > maxBytes {
			return nil, fmt.Errorf("rpcx: record exceeds %d bytes", maxBytes)
		}
		frag := make([]byte, n)
		if _, err := io.ReadFull(r, frag); err != nil {
			return nil, err
		}
		out = append(out, frag...)
		if h&lastFragment != 0 {
			return out, nil
		}
	}
}
