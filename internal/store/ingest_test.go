package store

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/results"
	"repro/internal/rpcx"
)

// recvIngest reads one ingest message from r.
func recvIngest(r io.Reader) (*ingestMsg, error) {
	var m ingestMsg
	if err := rpcx.ReadJSON(r, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// TestPublishOverTCP runs the real daemon loop on a loopback listener
// and publishes through the client: the stored object must be the
// publisher's canonical bytes.
func TestPublishOverTCP(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeIngest(ctx, ln, s, IngestOptions{}) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	db := testDB(t, 1)
	wantEnc, wantHash, err := EncodeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	m, err := PublishWith(ctx, ln.Addr().String(), testManifest("tcp"), db, PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.ContentHash != wantHash {
		t.Errorf("published content hash %s, want %s", m.ContentHash, wantHash)
	}
	obj, err := s.Object(m.ContentHash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obj, wantEnc) {
		t.Error("daemon-side bytes differ from the publisher's canonical encoding")
	}

	// Second publish of the same run: idempotent, same run ID.
	again, err := PublishWith(ctx, ln.Addr().String(), testManifest("tcp"), db, PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.RunID != m.RunID {
		t.Errorf("re-publish produced run %s, want %s", again.RunID, m.RunID)
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Errorf("store holds %d runs, want 1", len(runs))
	}
}

// TestFragmentOrderIrrelevant publishes the same database as
// differently ordered fragment streams; both sessions must land on the
// same run (the canonical encoding makes arrival order invisible).
func TestFragmentOrderIrrelevant(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t, 1)
	_, wantHash, err := EncodeDB(db)
	if err != nil {
		t.Fatal(err)
	}

	publishOrdered := func(reverse bool) Manifest {
		t.Helper()
		var req bytes.Buffer
		m := testManifest("frag")
		writeFrame := func(msg *ingestMsg) {
			if err := rpcx.WriteJSON(&req, msg); err != nil {
				t.Fatal(err)
			}
		}
		writeFrame(&ingestMsg{Type: msgPublish, V: ingestVersion,
			Label: m.Label, Machines: m.Machines, Options: m.Options, CodeVersion: m.CodeVersion})
		entries := db.Entries()
		if reverse {
			for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
				entries[i], entries[j] = entries[j], entries[i]
			}
		}
		// One entry per fragment: the maximally fragmented stream.
		for _, e := range entries {
			writeFrame(&ingestMsg{Type: msgFragment, Entries: []results.Entry{e}})
		}
		writeFrame(&ingestMsg{Type: msgCommit, ContentHash: wantHash})

		var resp bytes.Buffer
		_ = handleSession(rpcx.NewSession(&req, &resp), s)
		reply, err := recvIngest(&resp)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != msgPublished {
			t.Fatalf("session failed: %s %s", reply.Type, reply.Err)
		}
		return Manifest{RunID: reply.RunID, ContentHash: reply.ContentHash}
	}

	fwd := publishOrdered(false)
	rev := publishOrdered(true)
	if fwd.RunID != rev.RunID || fwd.ContentHash != wantHash {
		t.Errorf("fragment order changed the run: fwd %+v rev %+v want hash %s", fwd, rev, wantHash)
	}
}

// TestSessionRejects exercises the daemon's failure replies: wrong
// protocol version, missing machines, hash mismatch, stray frames.
func TestSessionRejects(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	session := func(build func(buf *bytes.Buffer)) *ingestMsg {
		t.Helper()
		var req, resp bytes.Buffer
		build(&req)
		_ = handleSession(rpcx.NewSession(&req, &resp), s)
		reply, err := recvIngest(&resp)
		if err != nil {
			t.Fatalf("no reply frame: %v", err)
		}
		return reply
	}
	m := testManifest("x")

	if r := session(func(b *bytes.Buffer) {
		_ = rpcx.WriteJSON(b, &ingestMsg{Type: msgPublish, V: 99, Machines: m.Machines})
	}); r.Type != msgError || !strings.Contains(r.Err, "version") {
		t.Errorf("version mismatch not rejected: %+v", r)
	}

	if r := session(func(b *bytes.Buffer) {
		_ = rpcx.WriteJSON(b, &ingestMsg{Type: msgPublish, V: ingestVersion})
	}); r.Type != msgError || !strings.Contains(r.Err, "machines") {
		t.Errorf("machine-less publish not rejected: %+v", r)
	}

	if r := session(func(b *bytes.Buffer) {
		_ = rpcx.WriteJSON(b, &ingestMsg{Type: msgPublish, V: ingestVersion, Machines: m.Machines})
		_ = rpcx.WriteJSON(b, &ingestMsg{Type: msgCommit, ContentHash: "not-the-hash"})
	}); r.Type != msgError || !strings.Contains(r.Err, "content hash mismatch") {
		t.Errorf("hash mismatch not rejected: %+v", r)
	}

	if r := session(func(b *bytes.Buffer) {
		_ = rpcx.WriteJSON(b, &ingestMsg{Type: msgFragment})
	}); r.Type != msgError {
		t.Errorf("fragment before publish not rejected: %+v", r)
	}

	if r := session(func(b *bytes.Buffer) {
		_ = rpcx.WriteJSON(b, &ingestMsg{Type: msgPublish, V: ingestVersion, Machines: m.Machines})
		_ = rpcx.WriteJSON(b, &ingestMsg{Type: msgPublished})
	}); r.Type != msgError {
		t.Errorf("stray frame type not rejected: %+v", r)
	}

	// Raw garbage instead of a frame: the framing layer must refuse it
	// without panicking.
	if r := session(func(b *bytes.Buffer) {
		b.WriteString("GET / HTTP/1.1\r\n\r\n")
	}); r.Type != msgError {
		t.Errorf("garbage stream not rejected: %+v", r)
	}

	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Errorf("rejected sessions stored %d runs", len(runs))
	}
}

// TestIngestUsesRPCXFraming pins the wire discipline: an ingest frame
// is readable with rpcx.ReadFrame, the same record marking the fleet
// protocol uses.
func TestIngestUsesRPCXFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := rpcx.WriteJSON(&buf, &ingestMsg{Type: msgPublish, V: ingestVersion, Machines: []string{"m"}}); err != nil {
		t.Fatal(err)
	}
	payload, err := rpcx.ReadFrame(&buf, rpcx.MaxMessageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"type":"publish"`)) {
		t.Errorf("frame payload is not the expected JSON: %s", payload)
	}
}
