package rpcx

import (
	"encoding/binary"
	"io"
)

// This file exports the package's record-marking discipline (RFC 1831
// §10: a 32-bit big-endian header whose top bit marks the final
// fragment, then the payload) for reuse outside the RPC layer. The
// fleet coordinator/worker protocol frames its JSONL messages with
// exactly these records, over stdin/stdout pipes and TCP alike, so one
// framing implementation serves both the benchmark RPC model and the
// control plane.

// WriteFrame sends p as one record-marked frame.
func WriteFrame(w io.Writer, p []byte) error { return writeRecord(w, p) }

// ReadFrame receives one frame, reassembling fragments; maxBytes
// bounds the total payload size (<=0 selects the 1MB default).
func ReadFrame(r io.Reader, maxBytes int) ([]byte, error) { return readRecord(r, maxBytes) }

// FramePayload returns the payload of p when p is exactly one final
// record — what WriteFrame sends in its one Write — and false otherwise.
func FramePayload(p []byte) ([]byte, bool) {
	if len(p) < 4 || binary.BigEndian.Uint32(p) != uint32(len(p)-4)|lastFragment {
		return nil, false
	}
	return p[4:], true
}
