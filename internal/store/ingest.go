package store

import (
	"context"
	"errors"
	"fmt"
	"net"

	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/rpcx"
)

// The ingestion protocol: how runs reach a store daemon. It rides the
// session layer the fleet rides — internal/rpcx's JSON messages in
// RFC-1831 record frames, served and dialed by rpcx — so a fleet
// coordinator or a local run streams its database to `lmbench
// -store-listen` with the same code that moved the fragments between
// workers in the first place.
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

// IngestOptions tunes the daemon side of the ingest loop; see
// ServeIngest. The zero value selects production defaults.
type IngestOptions = rpcx.ServeOptions

// ServeIngest accepts publish sessions on ln until ctx is cancelled,
// through rpcx.Serve. Each connection is one session; sessions run
// concurrently (Put serializes the final store write). A session is
// busy for its whole life, so on cancel the listener closes and every
// in-flight session gets DrainTimeout (default 10s) to land its
// commit before it is force-closed; then ServeIngest returns nil. With
// o.Registry set it counts sessions and failures as
// lmbench_store_ingest_* families. This is the loop behind `lmbench
// -store-listen`.
func ServeIngest(ctx context.Context, ln net.Listener, s *Store, o IngestOptions) error {
	var sessions, failures *obs.Counter
	if o.Registry != nil {
		sessions = o.Registry.Counter("lmbench_store_ingest_sessions_total",
			"Publish sessions accepted by the ingest listener.")
		failures = o.Registry.Counter("lmbench_store_ingest_failures_total",
			"Publish sessions that ended in an error reply or wire failure.")
	}
	return rpcx.Serve(ctx, ln, o, func(_ context.Context, sess *rpcx.Session) error {
		if sessions != nil {
			sessions.Add(1)
		}
		err := handleSession(sess, s)
		if err == nil {
			return nil
		}
		if failures != nil {
			failures.Add(1)
		}
		return fmt.Errorf("store: ingest session from %s failed: %w", sess.Conn.RemoteAddr(), err)
	})
}

// handleSession consumes one publish session and replies with exactly
// one published or error frame. A malformed session never panics; the
// reply (or the connection teardown) carries the failure, and the
// returned error mirrors it for the daemon's accounting.
func handleSession(sess *rpcx.Session, s *Store) error {
	fail := func(err error) error {
		_ = sess.Send(&ingestMsg{Type: msgError, Err: err.Error()})
		return err
	}

	var first ingestMsg
	if err := sess.Recv(&first); err != nil {
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
		var m ingestMsg
		if err := sess.Recv(&m); err != nil {
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
			return sess.Send(&ingestMsg{
				Type:        msgPublished,
				RunID:       stored.RunID,
				ContentHash: stored.ContentHash,
				Seq:         stored.Seq,
			})
		default:
			return fail(fmt.Errorf("unexpected %q frame inside publish session", m.Type))
		}
	}
}

// PublishOptions tunes the client side of a publish; see PublishWith.
// The zero value selects production defaults.
type PublishOptions = rpcx.DialOptions

// PublishWith streams db to the store daemon at addr as one publish
// session through rpcx.Dial and returns the stored manifest. The store
// fills RunID and Seq; the client computes the content hash locally so
// the daemon can verify end-to-end integrity, and verifies the
// daemon's reply against the same hash in return. Every failure short
// of ctx being done — a refused dial, a torn session, a rejected or
// corrupted reply — is retried (default 4 times, 30s idle timeout):
// safe by construction, because the run ID is content-addressed, so a
// session that actually landed before its reply was lost makes the
// retry an idempotent no-op that returns the already-stored manifest.
func PublishWith(ctx context.Context, addr string, m Manifest, db *results.DB, o PublishOptions) (Manifest, error) {
	var got Manifest
	err := rpcx.Dial(ctx, addr, o, func(sess *rpcx.Session) (err error) {
		defer func() { _ = sess.Conn.Close() }()
		got, err = publishSession(sess, m, db)
		return err
	})
	if err != nil {
		return Manifest{}, fmt.Errorf("store: publish: %w", err)
	}
	return got, nil
}

// publishSession runs the client side of one publish session.
func publishSession(sess *rpcx.Session, m Manifest, db *results.DB) (Manifest, error) {
	hash, err := ContentHash(db)
	if err != nil {
		return Manifest{}, err
	}
	if err := sess.Send(&ingestMsg{
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
		if err := sess.Send(&ingestMsg{Type: msgFragment, Entries: entries[:n]}); err != nil {
			return Manifest{}, err
		}
		entries = entries[n:]
	}
	if err := sess.Send(&ingestMsg{Type: msgCommit, ContentHash: hash}); err != nil {
		return Manifest{}, err
	}
	var reply ingestMsg
	if err := sess.Recv(&reply); err != nil {
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
