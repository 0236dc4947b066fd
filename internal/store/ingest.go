package store

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/rpcx"
)

// The ingestion protocol: how runs reach a store daemon. It reuses the
// fleet's wire discipline — JSON messages, record-framed with
// internal/rpcx's RFC-1831 marking — so a fleet coordinator or a local
// run streams its database to `lmbench -store-listen` with the same
// framing code that moved the fragments between workers in the first
// place.
//
// One publish is a session:
//
//	→ publish   {label, machines, options, code_version}
//	→ fragment  {entries: [...]}        (zero or more, any order)
//	→ commit    {content_hash}          (publisher's local hash)
//	← published {run_id, content_hash, seq}   or   error {error}
//
// The daemon re-assembles the fragments into a database, encodes it
// canonically, and verifies it landed on the publisher's content hash
// before storing — an end-to-end integrity check that also proves the
// canonical encoding makes fragment arrival order irrelevant.

// ingestVersion guards the ingestion wire protocol.
const ingestVersion = 1

// maxFrameBytes bounds one ingest frame; a Figure-1 series fragment
// with quality attrs is a few hundred KB, so 16MB is far from real
// traffic while still refusing a corrupt length prefix.
const maxFrameBytes = 16 << 20

// fragmentEntries is how many entries a publishing client packs per
// fragment frame.
const fragmentEntries = 64

// Ingest message types.
const (
	msgPublish   = "publish"
	msgFragment  = "fragment"
	msgCommit    = "commit"
	msgPublished = "published"
	msgError     = "error"
)

// ingestMsg is one protocol frame.
type ingestMsg struct {
	Type string `json:"type"`
	V    int    `json:"v,omitempty"`

	// publish fields.
	Label       string   `json:"label,omitempty"`
	Machines    []string `json:"machines,omitempty"`
	Options     string   `json:"options,omitempty"`
	CodeVersion string   `json:"code_version,omitempty"`

	// fragment payload. Entries round-trip exactly: encoding/json
	// writes float64s in shortest form that parses back to the same
	// bits.
	Entries []results.Entry `json:"entries,omitempty"`

	// commit / published fields.
	ContentHash string `json:"content_hash,omitempty"`
	RunID       string `json:"run_id,omitempty"`
	Seq         int64  `json:"seq,omitempty"`

	// error field.
	Err string `json:"error,omitempty"`
}

func writeIngest(w io.Writer, m *ingestMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", m.Type, err)
	}
	return rpcx.WriteFrame(w, b)
}

func readIngest(r io.Reader) (*ingestMsg, error) {
	b, err := rpcx.ReadFrame(r, maxFrameBytes)
	if err != nil {
		return nil, err
	}
	var m ingestMsg
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: decode frame: %w", err)
	}
	return &m, nil
}

// IngestOptions tunes the daemon side of the ingest loop. The zero
// value selects production defaults.
type IngestOptions struct {
	// IdleTimeout is the per-read idle deadline on a session
	// connection: a connect-then-silent peer fails its next read in
	// this long instead of holding a daemon goroutine forever.
	// Default 30s; negative disables.
	IdleTimeout time.Duration
	// WriteTimeout is the per-write deadline. Default 30s; negative
	// disables.
	WriteTimeout time.Duration
	// DrainTimeout bounds the graceful drain after ctx is cancelled:
	// the listener closes immediately, in-flight sessions get this
	// long to finish their commit, then their connections are
	// force-closed. Default 10s; negative drains without forcing.
	DrainTimeout time.Duration
	// WrapConn, when set, wraps every accepted connection — the chaos
	// seam (netfaults installs its injector here).
	WrapConn func(net.Conn) net.Conn
	// Registry, when set, counts sessions and failures as
	// lmbench_store_ingest_* families.
	Registry *obs.Registry
	// Logf, when set, receives one line per failed session.
	Logf func(format string, args ...any)
}

func (o IngestOptions) normalize() IngestOptions {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 30 * time.Second
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

// Serve accepts publish sessions on ln until ctx is cancelled, with
// default options. Each connection is one session; sessions run
// concurrently (Put serializes the final store write). This is the
// loop behind `lmbench -store-listen`.
func Serve(ctx context.Context, ln net.Listener, s *Store) error {
	return ServeIngest(ctx, ln, s, IngestOptions{})
}

// ServeIngest is Serve with explicit options. On ctx cancellation it
// drains gracefully — stops accepting, lets in-flight commits finish
// (bounded by DrainTimeout), waits for every session goroutine — and
// returns nil.
func ServeIngest(ctx context.Context, ln net.Listener, s *Store, o IngestOptions) error {
	o = o.normalize()
	var sessions, failures *obs.Counter
	if o.Registry != nil {
		sessions = o.Registry.Counter("lmbench_store_ingest_sessions_total",
			"Publish sessions accepted by the ingest listener.")
		failures = o.Registry.Counter("lmbench_store_ingest_failures_total",
			"Publish sessions that ended in an error reply or wire failure.")
	}

	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
		wg    sync.WaitGroup
	)
	stop := context.AfterFunc(ctx, func() { _ = ln.Close() })
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break // drain
			}
			return err
		}
		if o.WrapConn != nil {
			conn = o.WrapConn(conn)
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				_ = conn.Close()
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
			if sessions != nil {
				sessions.Add(1)
			}
			c := rpcx.WithDeadlines(conn, o.IdleTimeout, o.WriteTimeout)
			if err := handleSession(c, c, s); err != nil {
				if failures != nil {
					failures.Add(1)
				}
				if o.Logf != nil {
					o.Logf("store: ingest session from %s failed: %v", conn.RemoteAddr(), err)
				}
			}
		}()
	}

	// Drain: give in-flight sessions DrainTimeout to land their
	// commits, then cut them off.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var force <-chan time.Time
	if o.DrainTimeout > 0 {
		t := time.NewTimer(o.DrainTimeout)
		defer t.Stop()
		force = t.C
	}
	select {
	case <-done:
	case <-force:
		mu.Lock()
		for c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		<-done
	}
	return nil
}

// HandleSession runs one publish session over an arbitrary
// reader/writer pair — exported for tests and for piping a session
// over transports other than TCP.
func HandleSession(r io.Reader, w io.Writer, s *Store) { _ = handleSession(r, w, s) }

// handleSession consumes one publish session and replies with exactly
// one published or error frame. A malformed session never panics; the
// reply (or the connection teardown) carries the failure, and the
// returned error mirrors it for the daemon's accounting.
func handleSession(r io.Reader, w io.Writer, s *Store) error {
	br := bufio.NewReader(r)
	fail := func(err error) error {
		_ = writeIngest(w, &ingestMsg{Type: msgError, Err: err.Error()})
		return err
	}

	first, err := readIngest(br)
	if err != nil {
		return fail(fmt.Errorf("reading publish frame: %w", err))
	}
	if first.Type != msgPublish {
		return fail(fmt.Errorf("expected publish frame, got %q", first.Type))
	}
	if first.V != ingestVersion {
		return fail(fmt.Errorf("ingest protocol version %d, want %d", first.V, ingestVersion))
	}
	if len(first.Machines) == 0 {
		return fail(errors.New("publish frame lists no machines"))
	}

	db := &results.DB{}
	for {
		m, err := readIngest(br)
		if err != nil {
			return fail(fmt.Errorf("reading fragment: %w", err))
		}
		switch m.Type {
		case msgFragment:
			for _, e := range m.Entries {
				if err := db.Add(e); err != nil {
					return fail(err)
				}
			}
		case msgCommit:
			// Re-encode canonically and check we landed on the
			// publisher's hash: bytes on this side of the wire are the
			// bytes on that side, whatever order the fragments took.
			hash, err := ContentHash(db)
			if err != nil {
				return fail(err)
			}
			if m.ContentHash != "" && m.ContentHash != hash {
				return fail(fmt.Errorf("content hash mismatch: publisher %s, reassembled %s", m.ContentHash, hash))
			}
			stored, err := s.Put(Manifest{
				Label:       first.Label,
				Machines:    first.Machines,
				Options:     first.Options,
				CodeVersion: first.CodeVersion,
			}, db)
			if err != nil {
				return fail(err)
			}
			if err := writeIngest(w, &ingestMsg{
				Type:        msgPublished,
				RunID:       stored.RunID,
				ContentHash: stored.ContentHash,
				Seq:         stored.Seq,
			}); err != nil {
				return err
			}
			return nil
		default:
			return fail(fmt.Errorf("unexpected %q frame inside publish session", m.Type))
		}
	}
}

// PublishOptions tunes the client side of a publish. The zero value
// selects production defaults.
type PublishOptions struct {
	// Retries is how many times a failed session is retried (so
	// Retries+1 attempts total). Default 4; negative disables retry.
	Retries int
	// Backoff is the initial retry delay, doubling per retry and
	// saturating at 30s (the PR-1 discipline). Default 100ms.
	Backoff time.Duration
	// IdleTimeout is the per-read/write idle deadline on the session
	// connection. Default 30s; negative disables.
	IdleTimeout time.Duration
	// WrapConn, when set, wraps the dialed connection — the chaos seam.
	WrapConn func(net.Conn) net.Conn
	// OnRetry, when set, is called before each retry sleep with the
	// 1-based retry number and the error being retried.
	OnRetry func(retry int, err error)
}

func (o PublishOptions) normalize() PublishOptions {
	if o.Retries == 0 {
		o.Retries = 4
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 30 * time.Second
	}
	return o
}

// publishRetryCount counts retried publish sessions process-wide, for
// the lmbench_publish_retries_total metric.
var publishRetryCount atomic.Int64

// PublishRetries returns the number of publish session retries this
// process has performed.
func PublishRetries() int64 { return publishRetryCount.Load() }

// Publish streams db to the store daemon at addr as one publish
// session (retrying with default options) and returns the stored
// manifest. The store fills RunID and Seq; the client computes the
// content hash locally so the daemon can verify end-to-end integrity,
// and verifies the daemon's reply against the same hash in return.
func Publish(ctx context.Context, addr string, m Manifest, db *results.DB) (Manifest, error) {
	return PublishWith(ctx, addr, m, db, PublishOptions{})
}

// PublishWith is Publish with explicit options. Every failure short of
// the parent context being cancelled is retried — safe by
// construction: the run ID is content-addressed, so a session that
// actually landed before its reply was lost makes the retry an
// idempotent no-op that returns the already-stored manifest.
func PublishWith(ctx context.Context, addr string, m Manifest, db *results.DB, o PublishOptions) (Manifest, error) {
	o = o.normalize()
	backoff := o.Backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > o.Retries {
				return Manifest{}, fmt.Errorf("store: publish failed after %d attempt(s): %w", attempt, lastErr)
			}
			publishRetryCount.Add(1)
			if o.OnRetry != nil {
				o.OnRetry(attempt, lastErr)
			}
			select {
			case <-ctx.Done():
				return Manifest{}, ctx.Err()
			case <-time.After(backoff):
			}
			backoff = core.NextBackoff(backoff)
		}
		got, err := publishOnce(ctx, addr, m, db, o)
		if err == nil {
			return got, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return Manifest{}, err
		}
	}
}

// publishOnce runs a single publish session attempt.
func publishOnce(ctx context.Context, addr string, m Manifest, db *results.DB, o PublishOptions) (Manifest, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return Manifest{}, fmt.Errorf("store: publish: %w", err)
	}
	defer func() { _ = conn.Close() }()
	if o.WrapConn != nil {
		conn = o.WrapConn(conn)
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	// Deadline poisoning interrupts the I/O in flight at cancel time;
	// the ctx guard stops subsequent calls from re-arming a fresh idle
	// deadline over the poison.
	c := &ctxConn{Conn: rpcx.WithDeadlines(conn, o.IdleTimeout, o.IdleTimeout), ctx: ctx}
	return PublishSession(c, c, m, db)
}

// ctxConn fails Reads/Writes at call entry once ctx is done.
type ctxConn struct {
	net.Conn
	ctx context.Context
}

func (c *ctxConn) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *ctxConn) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// PublishSession runs the client side of one publish session over an
// arbitrary reader/writer pair.
func PublishSession(r io.Reader, w io.Writer, m Manifest, db *results.DB) (Manifest, error) {
	hash, err := ContentHash(db)
	if err != nil {
		return Manifest{}, err
	}
	if err := writeIngest(w, &ingestMsg{
		Type: msgPublish, V: ingestVersion,
		Label: m.Label, Machines: m.Machines,
		Options: m.Options, CodeVersion: m.CodeVersion,
	}); err != nil {
		return Manifest{}, err
	}
	entries := db.Entries()
	for len(entries) > 0 {
		n := fragmentEntries
		if n > len(entries) {
			n = len(entries)
		}
		if err := writeIngest(w, &ingestMsg{Type: msgFragment, Entries: entries[:n]}); err != nil {
			return Manifest{}, err
		}
		entries = entries[n:]
	}
	if err := writeIngest(w, &ingestMsg{Type: msgCommit, ContentHash: hash}); err != nil {
		return Manifest{}, err
	}
	reply, err := readIngest(bufio.NewReader(r))
	if err != nil {
		return Manifest{}, fmt.Errorf("store: publish reply: %w", err)
	}
	switch reply.Type {
	case msgPublished:
		// Verify the reply end-to-end: every field of the run key is
		// client-known, so a corrupted published frame (a flipped byte
		// on the wire) cannot smuggle a wrong run identity into the
		// caller — it surfaces as a retryable error instead.
		if reply.ContentHash != hash {
			return Manifest{}, fmt.Errorf("store: publish reply content hash %s, expected %s", reply.ContentHash, hash)
		}
		want := m
		want.ContentHash = hash
		if wantID := RunIDFor(want); reply.RunID != wantID {
			return Manifest{}, fmt.Errorf("store: publish reply run ID %s, expected %s", reply.RunID, wantID)
		}
		m.RunID = reply.RunID
		m.ContentHash = reply.ContentHash
		m.Seq = reply.Seq
		return m, nil
	case msgError:
		return Manifest{}, fmt.Errorf("store: daemon rejected publish: %s", reply.Err)
	default:
		return Manifest{}, fmt.Errorf("store: unexpected reply frame %q", reply.Type)
	}
}
