// Package unitcache is the content-addressed work-unit cache behind
// incremental evaluation: warm runs restore each (machine × experiment
// group) unit's database fragment from disk instead of re-executing
// it, so a full catalog sweep whose inputs did not change costs file
// reads, not simulation.
//
// # Keying
//
// A unit's cache key is the SHA-256 of everything its result bytes
// depend on:
//
//   - the machine profile fingerprint (machines.Profile.Fingerprint):
//     change one cache latency in a profile and only that machine's
//     units recompute;
//   - the experiment group key (core.ExperimentGroup.Key), the unit of
//     execution, journaling and replay;
//   - the run's configuration digest (core.ConfigDigest), the one a
//     journal record carries: the normalized-options fingerprint and
//     the quality gate's canonical budget. Nothing in the options says
//     how wide a run executes — the suite's worker count is GOMAXPROCS,
//     proven byte-identical at any value — so every width shares keys.
//     SweepMode is part of them: adaptive sweeps produce different
//     bytes (synthetic interpolated points, sweep.* attrs) than
//     exhaustive ones, so the two modes get disjoint key spaces and a
//     warm cache from one mode can never poison a run in the other. The
//     gate (MaxRSD, QualityRetries) stamps quality.* attrs into
//     accepted entries, so enabling it changes result bytes;
//   - the simulator code version (store.CodeVersion, the vcs.revision
//     stamped into the build): a rebuilt world never serves stale
//     physics.
//
// The group's member-ID list is deliberately NOT part of the key: a
// group's Run function produces the same entries regardless of the
// -only filter, and replay re-derives skip IDs from the live group, so
// `-only figure1` and a full run share the mem_hier unit.
//
// # Trust
//
// Fragments are self-verifying: a header line, the SHA-256 of the
// payload, then the payload (the unit's core.JournalRecord as JSON).
// Loads re-hash and re-validate; any mismatch — torn write, bit rot,
// hand-edited file — is a miss, and the offending file is moved to
// quarantine/ by store.Quarantine (never deleted, as store.Scrub
// quarantines) before the unit recomputes. Writes go through
// store.WriteFileAtomic, the same stage→fsync→rename path store objects
// use, so a crash mid-store leaves no torn fragment.
//
// Machines outside the simulated catalog (the host backend) have no
// profile fingerprint and no determinism; their units bypass the cache
// entirely — not even counted as misses.
package unitcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/store"
)

// fragmentHeader is the first line of every cached fragment; bump the
// version to invalidate every fragment written by older formats.
const fragmentHeader = "# lmbench-go unit-fragment v1"

// Observer sees cache traffic out of band — the unit-cache analogue of
// the fleet's scheduling observer. obs.CacheMetrics implements it
// structurally; nil means unobserved. Implementations must be safe for
// concurrent use: an executor's slots hit one cache at once.
type Observer interface {
	// CacheHit reports a fragment served from the cache.
	CacheHit()
	// CacheMiss reports a lookup that found nothing usable (absent,
	// corrupt, or unreadable).
	CacheMiss()
	// CacheStored reports a fragment written, with its encoded size.
	CacheStored(bytes int64)
	// CacheEvicted reports files removed by the size cap.
	CacheEvicted(files int, bytes int64)
}

// noopObserver stands in for a nil Observer.
type noopObserver struct{}

func (noopObserver) CacheHit()               {}
func (noopObserver) CacheMiss()              {}
func (noopObserver) CacheStored(int64)       {}
func (noopObserver) CacheEvicted(int, int64) {}

// Config tunes an opened cache.
type Config struct {
	// ReadOnly serves hits but never writes: no stores, no evictions,
	// no recency touches. CI gates use it so a pull request cannot
	// poison a shared cache.
	ReadOnly bool
	// MaxBytes caps the units directory; when a store pushes the total
	// past it, least-recently-used fragments (by modification time,
	// refreshed on every hit) are evicted until back under. 0 means
	// unbounded.
	MaxBytes int64
	// MaxRSD and QualityRetries mirror the suite's quality gate: the
	// gate stamps quality.* attrs into result entries, so its
	// parameters are key inputs, canonicalized by core.ConfigDigest.
	MaxRSD         float64
	QualityRetries int
	// Obs sees hits, misses, stores and evictions; nil means
	// unobserved.
	Obs Observer
	// Resolve maps a machine name to its profile for cache-key
	// fingerprinting. Nil defaults to the shipped catalog
	// (machines.Default().ByName), a superset of the compiled
	// built-ins; runs over file-loaded or calibration-candidate
	// profiles install their catalog's resolver here so each distinct
	// profile keys its own units. Names the resolver rejects are
	// uncacheable (e.g. the host backend).
	Resolve func(name string) (machines.Profile, bool)
}

// Stats is a point-in-time summary of one cache's traffic.
type Stats struct {
	// Hits and Misses count lookups of cacheable units; uncacheable
	// machines (host) bypass the cache and count as neither.
	Hits, Misses int64
	// Stored counts fragments written; BytesWritten their total encoded
	// size.
	Stored       int64
	BytesWritten int64
	// Evictions counts fragments removed by the MaxBytes cap.
	Evictions int64
}

// String renders the stats in the greppable one-line form cmd/lmbench
// prints at exit.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d stored=%d evictions=%d bytes=%d",
		s.Hits, s.Misses, s.Stored, s.Evictions, s.BytesWritten)
}

// Cache is a content-addressed unit cache rooted at a directory. It
// implements core.UnitCache and is safe for concurrent use.
type Cache struct {
	dir         string
	cfg         Config
	obs         Observer
	config      string // core.ConfigDigest of the run's options and quality gate
	codeVersion string

	// keys memoizes per-machine key prefixes (profile fingerprints are
	// a few KB of JSON; hashing them once per machine, not per unit).
	keysMu sync.Mutex
	keys   map[string]string // machine name -> profile fingerprint ("" = uncacheable)

	// writeMu serializes store+evict so the size accounting the
	// eviction scan reads is never mid-update.
	writeMu sync.Mutex

	hits, misses, stored, evictions, bytesWritten atomic.Int64
}

// Open opens (creating if needed) the unit cache rooted at dir, keyed
// for runs with the given options. The options and the quality gate
// are digested once here — every Lookup and Store against this handle
// shares them — so one Cache serves exactly one run configuration.
func Open(dir string, opts core.Options, cfg Config) (*Cache, error) {
	config, err := core.ConfigDigest(opts, cfg.MaxRSD, cfg.QualityRetries)
	if err != nil {
		return nil, fmt.Errorf("unitcache: %w", err)
	}
	for _, d := range []string{dir, filepath.Join(dir, "units")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("unitcache: %w", err)
		}
	}
	c := &Cache{
		dir: dir, cfg: cfg, obs: cfg.Obs,
		config:      config,
		codeVersion: store.CodeVersion(),
		keys:        map[string]string{},
	}
	if c.obs == nil {
		c.obs = noopObserver{}
	}
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the cache's traffic counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Stored: c.stored.Load(), Evictions: c.evictions.Load(),
		BytesWritten: c.bytesWritten.Load(),
	}
}

// KeyFor derives the cache key for one work unit from its raw key
// inputs, config being the run's core.ConfigDigest. Exported so
// invalidation tests can assert exactly which input changes move the
// key.
func KeyFor(profileFP, groupKey, config, codeVersion string) string {
	h := sha256.New()
	fmt.Fprintf(h, "lmbench-unit/v2\n")
	fmt.Fprintf(h, "profile %s\n", profileFP)
	fmt.Fprintf(h, "group %s\n", groupKey)
	fmt.Fprintf(h, "config %s\n", config)
	fmt.Fprintf(h, "version %s\n", codeVersion)
	return hex.EncodeToString(h.Sum(nil))
}

// defaultResolve resolves machine names against the shipped catalog
// (compiled built-ins plus embedded data files).
func defaultResolve(name string) (machines.Profile, bool) {
	return machines.Default().ByName(name)
}

// keyFor resolves the cache key for (machine, groupKey); ok=false
// means the unit is uncacheable (the machine is not a catalog profile,
// e.g. the host backend).
func (c *Cache) keyFor(machine, groupKey string) (string, bool) {
	resolve := c.cfg.Resolve
	if resolve == nil {
		resolve = defaultResolve
	}
	c.keysMu.Lock()
	fp, seen := c.keys[machine]
	if !seen {
		if p, ok := resolve(machine); ok {
			f, err := p.Fingerprint()
			if err == nil {
				fp = f
			}
		}
		c.keys[machine] = fp
	}
	c.keysMu.Unlock()
	if fp == "" {
		return "", false
	}
	return KeyFor(fp, groupKey, c.config, c.codeVersion), true
}

func (c *Cache) unitPath(key string) string {
	return filepath.Join(c.dir, "units", key)
}

// Lookup implements core.UnitCache: it returns the cached record for
// one (machine, group-key) unit, or ok=false when the unit must
// execute. A fragment that fails verification is quarantined and
// reported as a miss; lookups never fail the run.
func (c *Cache) Lookup(machine, groupKey string) (core.JournalRecord, bool) {
	key, cacheable := c.keyFor(machine, groupKey)
	if !cacheable {
		return core.JournalRecord{}, false
	}
	path := c.unitPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		c.misses.Add(1)
		c.obs.CacheMiss()
		return core.JournalRecord{}, false
	}
	rec, err := decodeFragment(data)
	if err != nil || rec.Machine != machine || rec.Key != groupKey {
		// Never trust, never delete: move the bad fragment aside for
		// post-mortem and recompute the unit. Best effort — quarantine
		// trouble must not fail a lookup.
		_ = store.Quarantine(c.dir, path, key)
		c.misses.Add(1)
		c.obs.CacheMiss()
		return core.JournalRecord{}, false
	}
	if !c.cfg.ReadOnly {
		// Refresh recency so the LRU eviction scan sees hot fragments
		// as young. Best effort — a failed touch costs eviction
		// accuracy, not correctness.
		now := time.Now()
		_ = os.Chtimes(path, now, now)
	}
	c.hits.Add(1)
	c.obs.CacheHit()
	return rec, true
}

// Store implements core.UnitCache: it persists one freshly computed
// unit record. Read-only caches and uncacheable machines store
// nothing; a write failure is returned (and fails the run) because a
// cache that silently drops writes would masquerade as forever-cold.
func (c *Cache) Store(rec core.JournalRecord) error {
	if c.cfg.ReadOnly {
		return nil
	}
	if rec.Machine == "" || rec.Key == "" {
		return errors.New("unitcache: record needs machine and key")
	}
	key, cacheable := c.keyFor(rec.Machine, rec.Key)
	if !cacheable {
		return nil
	}
	data, err := encodeFragment(rec)
	if err != nil {
		return fmt.Errorf("unitcache: encode %s/%s: %w", rec.Machine, rec.Key, err)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := store.WriteFileAtomic(c.unitPath(key), data); err != nil {
		return fmt.Errorf("unitcache: store %s/%s: %w", rec.Machine, rec.Key, err)
	}
	c.stored.Add(1)
	c.bytesWritten.Add(int64(len(data)))
	c.obs.CacheStored(int64(len(data)))
	return c.evictLocked(key)
}

// evictLocked enforces MaxBytes after a store, removing fragments
// oldest-modification-first (hits refresh mtimes, making this LRU)
// until the units directory fits. The fragment just written is exempt
// — a cache too small for one unit still serves that unit this run.
// Callers hold writeMu.
func (c *Cache) evictLocked(keep string) error {
	if c.cfg.MaxBytes <= 0 {
		return nil
	}
	dir := filepath.Join(c.dir, "units")
	des, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("unitcache: evict scan: %w", err)
	}
	type frag struct {
		name  string
		size  int64
		mtime time.Time
	}
	var frags []frag
	var total int64
	for _, de := range des {
		if !de.Type().IsRegular() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with another process's eviction
		}
		frags = append(frags, frag{de.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= c.cfg.MaxBytes {
		return nil
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].mtime.Before(frags[j].mtime) })
	evicted, freed := 0, int64(0)
	for _, f := range frags {
		if total <= c.cfg.MaxBytes {
			break
		}
		if f.name == keep {
			continue
		}
		if err := os.Remove(filepath.Join(dir, f.name)); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return fmt.Errorf("unitcache: evict %s: %w", f.name, err)
		}
		total -= f.size
		freed += f.size
		evicted++
	}
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
		c.obs.CacheEvicted(evicted, freed)
	}
	return nil
}

// encodeFragment renders rec in the self-verifying on-disk format:
// header line, payload SHA-256, payload JSON.
func encodeFragment(rec core.JournalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(fragmentHeader)+1+hex.EncodedLen(len(sum))+1+len(payload)+1)
	out = append(out, fragmentHeader...)
	out = append(out, '\n')
	out = append(out, hex.EncodeToString(sum[:])...)
	out = append(out, '\n')
	out = append(out, payload...)
	out = append(out, '\n')
	return out, nil
}

// decodeFragment parses and verifies one on-disk fragment. Any
// structural problem — wrong header, bad digest line, hash mismatch,
// unparseable payload — is an error; callers treat every error as a
// miss. It never panics on arbitrary input (fuzzed).
func decodeFragment(data []byte) (core.JournalRecord, error) {
	var rec core.JournalRecord
	rest, ok := cutLine(data, fragmentHeader)
	if !ok {
		return rec, errors.New("unitcache: bad fragment header")
	}
	digest, payload, ok := splitLine(rest)
	if !ok || len(digest) != hex.EncodedLen(sha256.Size) {
		return rec, errors.New("unitcache: bad fragment digest line")
	}
	want, err := hex.DecodeString(string(digest))
	if err != nil {
		return rec, errors.New("unitcache: bad fragment digest line")
	}
	// The payload is everything after the digest line, minus the
	// trailing newline encodeFragment appends.
	if n := len(payload); n == 0 || payload[n-1] != '\n' {
		return rec, errors.New("unitcache: truncated fragment payload")
	}
	payload = payload[:len(payload)-1]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(want) {
		return rec, errors.New("unitcache: fragment hash mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("unitcache: fragment payload: %w", err)
	}
	if rec.Machine == "" || rec.Key == "" {
		return core.JournalRecord{}, errors.New("unitcache: fragment missing identity")
	}
	return rec, nil
}

// cutLine strips one exact line (and its newline) off the front.
func cutLine(data []byte, line string) (rest []byte, ok bool) {
	if len(data) < len(line)+1 || string(data[:len(line)]) != line || data[len(line)] != '\n' {
		return nil, false
	}
	return data[len(line)+1:], true
}

// splitLine splits at the first newline, excluding it from either
// half.
func splitLine(data []byte) (line, rest []byte, ok bool) {
	for i, b := range data {
		if b == '\n' {
			return data[:i], data[i+1:], true
		}
	}
	return nil, nil, false
}
