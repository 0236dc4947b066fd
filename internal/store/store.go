// Package store is the persistent, content-addressed multi-run
// results store — the paper's cross-machine comparison database grown
// into a service.
//
// lmbench's third contribution was "an extensible database of results";
// users ran the suite, mailed in their result files, and the paper's
// tables were produced from the merged database. This package is that
// workflow at production scale: runs are published into a durable
// store (locally or streamed over the fleet's wire framing), keyed by
// a hash of what produced them, and served back over HTTP as
// paper-style comparison tables, per-benchmark trend series, and
// automatic regression reports.
//
// # Content addressing
//
// Two hashes organize the store:
//
//   - The content hash is the SHA-256 of the database's canonical
//     encoding. results.DB encodes entries in a fixed (benchmark,
//     machine) order, so the hash is a pure function of the entry set:
//     a run published as out-of-order fragments, re-assembled by the
//     daemon and re-encoded, lands on the same hash the publisher
//     computed locally — verified at commit time.
//   - The run ID is the SHA-256 of the run manifest: the machine
//     profiles measured, a fingerprint of the harness options, the
//     code version, and the content hash. Deterministic simulator runs
//     of the same configuration therefore dedupe to one run (a second
//     publish is an idempotent no-op), while wall-clock runs of the
//     same machine stay distinct through their differing content.
//
// On disk the store is two directories: objects/ holds database blobs
// named by content hash (shared by duplicate-content runs), runs/
// holds one manifest JSON per run ID. Both are written atomically
// (temp file + rename), so a crashed publish leaves no torn shard.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/results"
)

// Manifest describes one stored run: what was measured, with which
// options, by which code, and the content hash of the resulting
// database. RunID, Seq and Created are assigned by the store on Put;
// publishers fill the rest.
type Manifest struct {
	// RunID is the hex SHA-256 of the manifest key (machines, options
	// fingerprint, code version, content hash) — the name the run is
	// stored and queried under.
	RunID string `json:"run_id"`
	// Label is a human-readable tag for the run ("nightly-2026-08-08",
	// "pre-refactor"); purely descriptive, not part of the key.
	Label string `json:"label,omitempty"`
	// Machines are the benchmark targets, in run order.
	Machines []string `json:"machines"`
	// Options is the fingerprint of the normalized harness options;
	// see Fingerprint.
	Options string `json:"options"`
	// CodeVersion identifies the code that produced the run; see
	// CodeVersion.
	CodeVersion string `json:"code_version"`
	// ContentHash is the hex SHA-256 of the canonical database
	// encoding — the value HTTP ETags are derived from.
	ContentHash string `json:"content_hash"`
	// Entries counts database entries, for listings.
	Entries int `json:"entries"`
	// Seq is the store-assigned ingest sequence number; trend series
	// order runs by it.
	Seq int64 `json:"seq"`
	// Created is the ingest time.
	Created time.Time `json:"created"`
}

// Fingerprint canonicalizes harness options into a deterministic
// string for run keying: core.Options.Fingerprint, the normalized
// options (defaults filled in, so "zero value" and "explicit default"
// fingerprint identically), JSON-encoded.
func Fingerprint(o core.Options) (string, error) { return o.Fingerprint() }

// CodeVersion identifies the running code for run manifests: the VCS
// revision stamped into the build when present, else "dev". Builds
// from the same sources key their runs identically; a rebuilt world
// gets a fresh key, which is exactly when regression reports between
// runs become interesting.
func CodeVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				if len(s.Value) > 12 {
					return s.Value[:12]
				}
				return s.Value
			}
		}
	}
	return "dev"
}

// EncodeDB returns the canonical encoding of db and its content hash.
func EncodeDB(db *results.DB) (enc []byte, contentHash string, err error) {
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:]), nil
}

// ContentHash returns the hex SHA-256 of the canonical encoding of db.
func ContentHash(db *results.DB) (string, error) {
	_, h, err := EncodeDB(db)
	return h, err
}

// RunIDFor computes the run key for a filled manifest: the SHA-256
// over (machines, options fingerprint, code version, content hash).
func RunIDFor(m Manifest) string {
	h := sha256.New()
	fmt.Fprintf(h, "lmbench-run/v1\n")
	fmt.Fprintf(h, "machines %s\n", strings.Join(m.Machines, "\x00"))
	fmt.Fprintf(h, "options %s\n", m.Options)
	fmt.Fprintf(h, "version %s\n", m.CodeVersion)
	fmt.Fprintf(h, "content %s\n", m.ContentHash)
	return hex.EncodeToString(h.Sum(nil))
}

// Store is a directory-backed run store. One process owns a store at
// a time (the daemon, or a CLI publishing locally); within the
// process it is safe for concurrent use.
type Store struct {
	dir string

	mu sync.Mutex // serializes Put's read-max-seq → write sequence
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "objects"), filepath.Join(dir, "runs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash)
}

func (s *Store) manifestPath(runID string) string {
	return filepath.Join(s.dir, "runs", runID+".json")
}

// WriteFileAtomic lands data at path via a temp file + rename, so a
// crash mid-write never leaves a torn shard for readers to trip over —
// and durably: the temp file is fsynced before the rename (else the
// rename can land while the data hasn't, and a power cut yields a
// full-length file of zeros at the final name) and the parent
// directory is fsynced after it (else the rename itself can vanish and
// a committed object silently disappears). Exported for the unit cache,
// whose fragments need the same crash discipline as store objects.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		_ = os.Remove(name)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Filesystems that refuse to fsync directories are tolerated —
// there the rename durability is the platform's best effort anyway.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// Put stores db under m. The store fills ContentHash, Entries, RunID,
// Seq and Created; the returned manifest is the stored one. Publishing
// a run whose key already exists is an idempotent no-op returning the
// existing manifest — content addressing makes "already have it" a
// hash comparison, not a diff.
func (s *Store) Put(m Manifest, db *results.DB) (Manifest, error) {
	if len(m.Machines) == 0 {
		return Manifest{}, errors.New("store: manifest needs at least one machine")
	}
	enc, hash, err := EncodeDB(db)
	if err != nil {
		return Manifest{}, err
	}
	m.ContentHash = hash
	m.Entries = db.Len()
	m.RunID = RunIDFor(m)

	s.mu.Lock()
	defer s.mu.Unlock()

	if existing, ok, err := s.get(m.RunID); err != nil {
		return Manifest{}, err
	} else if ok {
		// Same key ⇒ same content hash by construction; the blob is
		// already present. Keep the original manifest (first publish
		// wins the label and sequence slot).
		return existing, nil
	}

	if _, err := os.Stat(s.objectPath(hash)); errors.Is(err, os.ErrNotExist) {
		if err := WriteFileAtomic(s.objectPath(hash), enc); err != nil {
			return Manifest{}, err
		}
	} else if err != nil {
		return Manifest{}, err
	}

	maxSeq, err := s.maxSeq()
	if err != nil {
		return Manifest{}, err
	}
	m.Seq = maxSeq + 1
	if m.Created.IsZero() {
		m.Created = time.Now().UTC()
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, err
	}
	if err := WriteFileAtomic(s.manifestPath(m.RunID), append(mb, '\n')); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

func (s *Store) maxSeq() (int64, error) {
	runs, err := s.runs()
	if err != nil {
		return 0, err
	}
	var max int64
	for _, r := range runs {
		if r.Seq > max {
			max = r.Seq
		}
	}
	return max, nil
}

// readManifest parses one manifest shard, rejecting structurally
// unusable ones (missing key fields) so a corrupt shard surfaces as an
// error rather than a phantom run.
func readManifest(path string) (Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	if m.RunID == "" || m.ContentHash == "" || len(m.Machines) == 0 {
		return Manifest{}, fmt.Errorf("store: %s: manifest missing run_id, content_hash or machines", filepath.Base(path))
	}
	return m, nil
}

func (s *Store) runs() ([]Manifest, error) {
	des, err := os.ReadDir(filepath.Join(s.dir, "runs"))
	if err != nil {
		return nil, err
	}
	out := make([]Manifest, 0, len(des))
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		m, err := readManifest(filepath.Join(s.dir, "runs", name))
		if err != nil {
			return nil, err
		}
		if m.RunID != strings.TrimSuffix(name, ".json") {
			return nil, fmt.Errorf("store: %s: manifest claims run_id %s", name, m.RunID)
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].RunID < out[j].RunID
	})
	return out, nil
}

// Runs lists every stored run in ingest order (Seq ascending).
func (s *Store) Runs() ([]Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs()
}

func (s *Store) get(runID string) (Manifest, bool, error) {
	m, err := readManifest(s.manifestPath(runID))
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	return m, true, nil
}

// Get returns the manifest stored under the exact runID.
func (s *Store) Get(runID string) (Manifest, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.get(runID)
}

// Object returns the raw canonical database bytes for a content hash.
func (s *Store) Object(contentHash string) ([]byte, error) {
	return os.ReadFile(s.objectPath(contentHash))
}

// DB loads and decodes the database of the run at ref (see Resolve),
// verifying the blob still matches its content hash — a silently
// corrupted object is an error, never bad data served as good.
func (s *Store) DB(ref string) (Manifest, *results.DB, error) {
	m, err := s.Resolve(ref)
	if err != nil {
		return Manifest{}, nil, err
	}
	enc, err := s.Object(m.ContentHash)
	if err != nil {
		return Manifest{}, nil, err
	}
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != m.ContentHash {
		return Manifest{}, nil, fmt.Errorf("store: object %s corrupt: content hashes to %s", m.ContentHash, got)
	}
	db, err := results.Decode(bytes.NewReader(enc))
	if err != nil {
		return Manifest{}, nil, fmt.Errorf("store: object %s: %w", m.ContentHash, err)
	}
	return m, db, nil
}

// Resolve maps a run reference to its manifest. A reference is one of:
//
//   - "latest" or "latest~N": the Nth-most-recent run by ingest order
//   - a full run ID or a unique prefix of one (≥ 6 hex chars)
//   - a run label (must match exactly one run)
func (s *Store) Resolve(ref string) (Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ref == "" {
		return Manifest{}, errors.New("store: empty run reference")
	}
	// Only a full 64-hex ID touches the filesystem directly; anything
	// else (labels in particular) resolves against the listed run set,
	// so a hostile reference can never traverse outside runs/.
	if len(ref) == 64 && isHex(ref) {
		if m, ok, err := s.get(ref); err != nil {
			return Manifest{}, err
		} else if ok {
			return m, nil
		}
	}
	runs, err := s.runs()
	if err != nil {
		return Manifest{}, err
	}
	if ref == "latest" || strings.HasPrefix(ref, "latest~") {
		back := 0
		if rest, ok := strings.CutPrefix(ref, "latest~"); ok {
			back, err = strconv.Atoi(rest)
			if err != nil || back < 0 {
				return Manifest{}, fmt.Errorf("store: bad reference %q", ref)
			}
		}
		if back >= len(runs) {
			return Manifest{}, fmt.Errorf("store: %q: only %d run(s) stored", ref, len(runs))
		}
		return runs[len(runs)-1-back], nil
	}
	var hits []Manifest
	if len(ref) >= 6 && isHex(ref) {
		for _, m := range runs {
			if strings.HasPrefix(m.RunID, ref) {
				hits = append(hits, m)
			}
		}
	}
	if len(hits) == 0 {
		for _, m := range runs {
			if m.Label == ref {
				hits = append(hits, m)
			}
		}
	}
	switch len(hits) {
	case 1:
		return hits[0], nil
	case 0:
		return Manifest{}, fmt.Errorf("store: no run matches %q", ref)
	default:
		return Manifest{}, fmt.Errorf("store: reference %q is ambiguous (%d matches)", ref, len(hits))
	}
}

func isHex(s string) bool {
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f':
		default:
			return false
		}
	}
	return true
}

// Generation fingerprints the run set: the SHA-256 over every (run ID,
// seq) pair in order. Any ingest changes it, so listing- and
// trend-style HTTP responses use it as their ETag input — a cached
// "latest" comparison is invalidated the moment a new run lands.
func (s *Store) Generation() (string, error) {
	runs, err := s.Runs()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "lmbench-store-gen/v1\n")
	for _, m := range runs {
		fmt.Fprintf(h, "%s %d\n", m.RunID, m.Seq)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
