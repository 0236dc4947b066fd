// Package rpcx is a compact ONC-RPC-style remote procedure call layer:
// an XDR codec (RFC 1832 subset), call/reply message framing (RFC 1831
// subset), record marking for TCP, and client/server implementations
// over TCP and UDP.
//
// The paper measures Sun RPC layered over TCP and UDP and finds "the
// RPC layer frequently adds hundreds of microseconds of additional
// latency ... There is no justification for the extra cost; it is
// simply an expensive implementation." This package exists so the host
// backend can reproduce that layering experiment (Tables 12 and 13)
// with a real wire protocol rather than a stub.
//
// Its record framing also carries the suite's own control plane: the
// session layer (Session, Serve, Dial) frames the JSON messages of the
// fleet, the store ingest protocol and the chaos proxy.
package rpcx

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// XDR primitive sizes are multiples of four bytes; opaque data is
// padded to four-byte alignment.

// Encoder appends XDR-encoded values to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes an XDR hyper.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 encodes a signed hyper.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes an XDR boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// Opaque encodes variable-length opaque data with length prefix and
// zero padding to a four-byte boundary.
func (e *Encoder) Opaque(p []byte) {
	e.Uint32(uint32(len(p)))
	e.buf = append(e.buf, p...)
	for pad := (4 - len(p)%4) % 4; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// String encodes an XDR string.
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// ErrTruncated reports an XDR buffer that ended mid-value.
var ErrTruncated = errors.New("rpcx: truncated XDR data")

// Decoder consumes XDR-encoded values from a buffer.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps a buffer.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) ([]byte, error) {
	if d.Remaining() < n {
		return nil, ErrTruncated
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p, nil
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	p, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(p), nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes an XDR hyper.
func (d *Decoder) Uint64() (uint64, error) {
	p, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(p), nil
}

// Int64 decodes a signed hyper.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes an XDR boolean; any nonzero value is true, matching the
// liberal readers in common implementations.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	return v != 0, err
}

// Opaque decodes length-prefixed opaque data, verifying padding exists.
// maxLen guards against hostile lengths; 0 means 1<<20.
func (d *Decoder) Opaque(maxLen int) ([]byte, error) {
	if maxLen <= 0 {
		maxLen = 1 << 20
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(maxLen) {
		return nil, fmt.Errorf("rpcx: opaque length %d exceeds limit %d", n, maxLen)
	}
	padded := (int(n) + 3) / 4 * 4
	p, err := d.take(padded)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, p[:n])
	return out, nil
}

// String decodes an XDR string.
func (d *Decoder) String(maxLen int) (string, error) {
	p, err := d.Opaque(maxLen)
	return string(p), err
}
