package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ScrubReport is what a store scrub found and did.
type ScrubReport struct {
	// Objects and Runs count the healthy shards that survived.
	Objects int
	Runs    int
	// Partials counts abandoned .tmp-* files from interrupted atomic
	// writes, removed outright (a temp file is pre-rename by
	// definition — it was never committed).
	Partials int
	// CorruptObjects lists object shards whose bytes no longer hash to
	// their name; moved to quarantine/.
	CorruptObjects []string
	// CorruptManifests lists run shards that were unparseable,
	// misnamed, or referenced a missing/corrupt object; moved to
	// quarantine/.
	CorruptManifests []string
	// OrphanObjects lists valid objects no surviving run references,
	// removed as garbage. Safe by content addressing: if the run they
	// belonged to is re-published, the identical object is recreated.
	OrphanObjects []string
}

// Clean reports whether the scrub found nothing wrong.
func (r ScrubReport) Clean() bool {
	return r.Partials == 0 && len(r.CorruptObjects) == 0 &&
		len(r.CorruptManifests) == 0 && len(r.OrphanObjects) == 0
}

// String renders the operator-facing summary printed by
// `lmbench -store-scrub` and the daemon's startup scrub.
func (r ScrubReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scrub: %d run(s), %d object(s) healthy", r.Runs, r.Objects)
	if r.Clean() {
		b.WriteString("; store clean")
		return b.String()
	}
	if r.Partials > 0 {
		fmt.Fprintf(&b, "; removed %d partial write(s)", r.Partials)
	}
	if n := len(r.CorruptObjects); n > 0 {
		fmt.Fprintf(&b, "; quarantined %d corrupt object(s): %s", n, strings.Join(r.CorruptObjects, ", "))
	}
	if n := len(r.CorruptManifests); n > 0 {
		fmt.Fprintf(&b, "; quarantined %d corrupt manifest(s): %s", n, strings.Join(r.CorruptManifests, ", "))
	}
	if n := len(r.OrphanObjects); n > 0 {
		fmt.Fprintf(&b, "; collected %d orphan object(s)", n)
	}
	return b.String()
}

// Scrub walks the store and repairs what a crash, torn write, or disk
// corruption left behind:
//
//   - abandoned .tmp-* files (a publish interrupted pre-rename) are
//     removed,
//   - objects are re-hashed; any whose bytes don't match their
//     content-hash name are moved to quarantine/ (never deleted — an
//     operator may want the evidence),
//   - manifests that don't parse, are misnamed, or reference a
//     missing/quarantined object are moved to quarantine/,
//   - valid objects no surviving run references are deleted.
//
// The store is fully usable afterwards: every surviving run resolves
// and its database re-verifies. Re-publishing a quarantined run is
// safe and idempotent — content addressing recreates exactly the
// shards that were lost. Scrub holds the store lock, so it can run on
// a live daemon between ingests.
func (s *Store) Scrub() (ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep ScrubReport

	objDir := filepath.Join(s.dir, "objects")
	runDir := filepath.Join(s.dir, "runs")

	// Pass 1: sweep abandoned temp files.
	for _, dir := range []string{objDir, runDir} {
		des, err := os.ReadDir(dir)
		if err != nil {
			return rep, err
		}
		for _, de := range des {
			if !de.IsDir() && strings.HasPrefix(de.Name(), ".tmp-") {
				if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
					return rep, err
				}
				rep.Partials++
			}
		}
	}

	// Pass 2: re-hash every object; quarantine liars.
	healthy := make(map[string]bool)
	des, err := os.ReadDir(objDir)
	if err != nil {
		return rep, err
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		ok := len(name) == 64 && isHex(name)
		if ok {
			b, err := os.ReadFile(filepath.Join(objDir, name))
			if err != nil {
				return rep, err
			}
			sum := sha256.Sum256(b)
			ok = hex.EncodeToString(sum[:]) == name
		}
		if !ok {
			if err := Quarantine(s.dir, filepath.Join(objDir, name), "object-"+name); err != nil {
				return rep, err
			}
			rep.CorruptObjects = append(rep.CorruptObjects, name)
			continue
		}
		healthy[name] = true
	}

	// Pass 3: validate manifests; quarantine unusable ones and any
	// whose object didn't survive pass 2.
	referenced := make(map[string]bool)
	des, err = os.ReadDir(runDir)
	if err != nil {
		return rep, err
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(runDir, name)
		m, err := readManifest(path)
		bad := ""
		switch {
		case err != nil:
			bad = err.Error()
		case m.RunID != strings.TrimSuffix(name, ".json"):
			bad = fmt.Sprintf("manifest claims run_id %s", m.RunID)
		case !healthy[m.ContentHash]:
			bad = fmt.Sprintf("object %s missing or corrupt", m.ContentHash)
		}
		if bad != "" {
			if err := Quarantine(s.dir, path, "run-"+name); err != nil {
				return rep, err
			}
			rep.CorruptManifests = append(rep.CorruptManifests, name+" ("+bad+")")
			continue
		}
		referenced[m.ContentHash] = true
		rep.Runs++
	}

	// Pass 4: collect healthy objects no surviving run references.
	for hash := range healthy {
		if referenced[hash] {
			rep.Objects++
			continue
		}
		if err := os.Remove(filepath.Join(objDir, hash)); err != nil {
			return rep, err
		}
		rep.OrphanObjects = append(rep.OrphanObjects, hash)
	}

	sort.Strings(rep.CorruptObjects)
	sort.Strings(rep.CorruptManifests)
	sort.Strings(rep.OrphanObjects)
	if !rep.Clean() {
		// The run set may have changed; durably record the new
		// directory states.
		if err := syncDir(objDir); err != nil {
			return rep, err
		}
		if err := syncDir(runDir); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// Quarantine moves the damaged file at path into root's quarantine/
// directory under a stable name, appending a numeric suffix if one by
// that name is already parked there. Nothing is ever deleted: the
// evidence stays for post-mortem. Store.Scrub parks corrupt shards here
// and the unit cache its corrupt fragments.
func Quarantine(root, path, name string) error {
	qdir := filepath.Join(root, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(qdir, name)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); errors.Is(err, os.ErrNotExist) {
			break
		} else if err != nil {
			return err
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, i))
	}
	return os.Rename(path, dst)
}
