package store

// Corrupt-shard fuzz targets. The store's on-disk shards — manifest
// JSON files and content-addressed database objects — and its network
// ingest stream are the three places arbitrary bytes can reach the
// daemon. None of them may panic it, and anything a reader accepts
// must re-serialize to a fixed point (the property content addressing
// stands on).

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/results"
	"repro/internal/rpcx"
)

// FuzzManifestShard writes arbitrary bytes where a manifest belongs
// and lists the store: never a panic, and an accepted shard must
// survive a write → read round trip unchanged.
func FuzzManifestShard(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"run_id":"x","content_hash":"y","machines":["m"]}`))
	f.Add([]byte(`{"run_id":"`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// The shard name must match the manifest's claimed run ID for
		// runs() to accept it; derive it when the data parses.
		name := "0000000000000000000000000000000000000000000000000000000000000000"
		var m Manifest
		if json.Unmarshal(data, &m) == nil && m.RunID != "" {
			name = m.RunID
		}
		if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
			// Keep the fuzzer from planting files outside the temp dir;
			// the store itself never writes attacker-named shards (run
			// IDs are hashes it computes).
			return
		}
		path := filepath.Join(dir, "runs", name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return
		}
		runs, err := s.Runs()
		if err != nil {
			return // corrupt shard rejected: fine
		}
		for _, got := range runs {
			// Accepted: re-serialize and re-read; the manifest must be
			// a fixed point.
			enc, err := json.Marshal(got)
			if err != nil {
				t.Fatalf("accepted manifest does not re-encode: %v", err)
			}
			var back Manifest
			if err := json.Unmarshal(enc, &back); err != nil {
				t.Fatalf("re-encoded manifest does not parse: %v", err)
			}
			enc2, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("manifest re-encoding is not a fixed point:\n%s\n%s", enc, enc2)
			}
		}
	})
}

// FuzzObjectShard plants arbitrary bytes as a run's database object:
// DB() must either reject it (hash check, decoder) or — when handed
// the matching hash — produce a database whose canonical encoding is a
// fixed point.
func FuzzObjectShard(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("# lmbench-go results v1\n"))
	f.Add([]byte("# lmbench-go results v1\nentry \"b\" \"m\" \"ns\" 1\nend\n"))
	f.Add([]byte("entry \"b\" \"m\" \"ns\" NaN\nend\n"))
	f.Add([]byte("\x00\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Store a real run, then corrupt its object in place.
		m, err := s.Put(Manifest{Machines: []string{"m"}, Options: "{}", CodeVersion: "fuzz"},
			mustDB(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.objectPath(m.ContentHash), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, db, err := s.DB(m.RunID)
		if err != nil {
			return // rejected: hash mismatch or decode failure
		}
		// Only reachable when data hashes to m.ContentHash (i.e. is the
		// original encoding): then the round trip must be exact.
		enc, _, err := EncodeDB(db)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted object is not an encode fixed point")
		}
	})
}

// FuzzIngestStream feeds arbitrary bytes to a publish session: the
// daemon must answer with a frame (or tear down) without panicking,
// and must never store a run from a stream that did not complete the
// protocol.
func FuzzIngestStream(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\x00\x00\x00\x04ouch"))
	f.Add([]byte("\x80\x00\x00\x02{}"))
	// A valid publish frame followed by garbage.
	var valid bytes.Buffer
	_ = rpcx.WriteJSON(&valid, &ingestMsg{Type: msgPublish, V: ingestVersion, Machines: []string{"m"}})
	f.Add(valid.Bytes())
	f.Add(append(append([]byte{}, valid.Bytes()...), 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var resp bytes.Buffer
		_ = handleSession(rpcx.NewSession(bytes.NewReader(data), &resp), s)
		runs, err := s.Runs()
		if err != nil {
			t.Fatalf("store unreadable after fuzzed session: %v", err)
		}
		for _, m := range runs {
			// A stored run can only come from a complete, hash-checked
			// session; verify its object really decodes.
			if _, _, err := s.DB(m.RunID); err != nil {
				t.Fatalf("fuzzed session stored an unreadable run: %v", err)
			}
		}
	})
}

func mustDB(t *testing.T) *results.DB {
	t.Helper()
	db := &results.DB{}
	if err := db.Add(results.Entry{Benchmark: "b", Machine: "m", Unit: "ns", Scalar: 1}); err != nil {
		t.Fatal(err)
	}
	return db
}
