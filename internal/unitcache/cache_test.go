package unitcache

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
)

// simName returns the i-th catalog machine name; the cache only serves
// catalog profiles, so tests key their records by real names.
func simName(t *testing.T, i int) string {
	t.Helper()
	names := machines.Names()
	if i >= len(names) {
		t.Fatalf("catalog has %d machines, need index %d", len(names), i)
	}
	return names[i]
}

func testRecord(machine, key string) core.JournalRecord {
	return core.JournalRecord{
		Machine: machine, Key: key,
		Entries: []results.Entry{
			{Benchmark: "bw_mem.read", Machine: machine, Unit: "MB/s", Scalar: 33.4},
			{Benchmark: "lat_mem_rd", Machine: machine, Unit: "ns",
				Series: []results.Point{{X: 1, Y: 2.5}, {X: 2, Y: 7.25}},
				Attrs:  map[string]string{"stride": "128"}},
		},
	}
}

func mustOpen(t *testing.T, dir string, opts core.Options, cfg Config) *Cache {
	t.Helper()
	c, err := Open(dir, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), core.Options{}, Config{})
	m := simName(t, 0)
	rec := testRecord(m, "table2")

	if _, ok := c.Lookup(m, "table2"); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := c.Store(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup(m, "table2")
	if !ok {
		t.Fatal("miss after store")
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip mutated the record:\n got %+v\nwant %+v", got, rec)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stored != 1 || s.BytesWritten == 0 {
		t.Errorf("stats = %s, want hits=1 misses=1 stored=1 and bytes>0", s)
	}
}

func TestSkipRecordRoundTrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), core.Options{}, Config{})
	m := simName(t, 0)
	rec := core.JournalRecord{Machine: m, Key: "table4", Skipped: true, Err: "no remote network"}
	if err := c.Store(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup(m, "table4")
	if !ok {
		t.Fatal("miss after storing a skip record")
	}
	if !got.Skipped || got.Err != rec.Err {
		t.Errorf("got %+v, want the skip record back", got)
	}
}

// TestUncacheableMachine proves machines outside the simulated catalog
// (the host backend) bypass the cache: no fragments, no counted
// traffic.
func TestUncacheableMachine(t *testing.T) {
	c := mustOpen(t, t.TempDir(), core.Options{}, Config{})
	if err := c.Store(core.JournalRecord{Machine: "host", Key: "table2"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup("host", "table2"); ok {
		t.Fatal("hit for an uncacheable machine")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 || s.Stored != 0 {
		t.Errorf("uncacheable traffic was counted: %s", s)
	}
}

// TestKeyInvalidation pins the tentpole's invalidation contract: each
// key input — profile, group, options, code version, quality gate —
// moves the key on its own; the member-ID list does not exist in the
// key at all.
func TestKeyInvalidation(t *testing.T) {
	p0, _ := machines.ByName(simName(t, 0))
	p1, _ := machines.ByName(simName(t, 1))
	fp0, err := p0.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := p1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp0 == fp1 {
		t.Fatal("distinct profiles share a fingerprint")
	}
	digest := func(o core.Options, maxRSD float64, qualityRetries int) string {
		t.Helper()
		d, err := core.ConfigDigest(o, maxRSD, qualityRetries)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	config := digest(core.Options{MemSize: 8 << 20}, 0, 0)
	base := KeyFor(fp0, "table2", config, "abc123")
	for name, other := range map[string]string{
		"profile":      KeyFor(fp1, "table2", config, "abc123"),
		"group":        KeyFor(fp0, "table7", config, "abc123"),
		"options":      KeyFor(fp0, "table2", digest(core.Options{MemSize: 4 << 20}, 0, 0), "abc123"),
		"code version": KeyFor(fp0, "table2", config, "def456"),
		"quality gate": KeyFor(fp0, "table2", digest(core.Options{MemSize: 8 << 20}, 0.05, 2), "abc123"),
	} {
		if other == base {
			t.Errorf("changing the %s did not change the key", name)
		}
	}
	// A renamed profile must not alias: Name is part of the fingerprint.
	renamed := p0
	renamed.Name = "renamed"
	rfp, err := renamed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if rfp == fp0 {
		t.Error("renaming a profile did not change its fingerprint")
	}
}

// TestOptionsChangeMisses proves the end-to-end form of options
// invalidation: a cache opened with different workload options misses
// on units stored under the old ones.
func TestOptionsChangeMisses(t *testing.T) {
	dir := t.TempDir()
	m := simName(t, 0)
	c1 := mustOpen(t, dir, core.Options{}, Config{})
	if err := c1.Store(testRecord(m, "table2")); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir, core.Options{MemSize: 4 << 20}, Config{})
	if _, ok := c2.Lookup(m, "table2"); ok {
		t.Fatal("hit across an options change")
	}
	// The quality gate is a key input even with identical workloads.
	c3 := mustOpen(t, dir, core.Options{}, Config{MaxRSD: 0.05})
	if _, ok := c3.Lookup(m, "table2"); ok {
		t.Fatal("hit across a quality-gate change")
	}
}

// TestCacheKeysIgnoreGOMAXPROCS proves the width a run executes at
// shares keys: a suite runs its units and sweep points GOMAXPROCS-wide
// byte-identically at any value, so a cache warmed at one width serves
// a run at another — both a stored record and a whole suite run, whose
// warm re-run at a different width misses nothing and encodes the
// same database.
func TestCacheKeysIgnoreGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	m := simName(t, 0)
	c1 := mustOpen(t, dir, core.Options{}, Config{})
	if err := c1.Store(testRecord(m, "mem_hier")); err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	c4 := mustOpen(t, dir, core.Options{}, Config{})
	if _, ok := c4.Lookup(m, "mem_hier"); !ok {
		t.Fatal("GOMAXPROCS split the key space")
	}

	opts := core.FastOptions()
	opts.MaxChaseSize = 256 << 10
	only := map[string]bool{"table6": true, "table7": true, "table11": true}
	run := func(procs int) ([]byte, Stats) {
		runtime.GOMAXPROCS(procs)
		p, _ := machines.ByName(m)
		mach, err := machines.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		c := mustOpen(t, filepath.Join(dir, "suite"), opts, Config{})
		db := &results.DB{}
		s := &core.Suite{M: mach, Opts: opts, Only: only, Cache: c}
		if _, err := s.Run(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := db.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), c.Stats()
	}
	cold, st := run(1)
	if st.Stored != 3 {
		t.Fatalf("cold run at GOMAXPROCS=1 stored %d units, want 3", st.Stored)
	}
	warm, st := run(2)
	if st.Misses != 0 || st.Hits != 3 {
		t.Errorf("warm run at GOMAXPROCS=2: %s, want 3 hits and no miss", st)
	}
	if !bytes.Equal(warm, cold) {
		t.Error("warm run at GOMAXPROCS=2 differs from the cold run at GOMAXPROCS=1")
	}
}

// TestSweepModeSplitsKeys proves the opposite of width neutrality for
// the sweep mode: adaptive results carry synthetic points and sweep.*
// attrs an exhaustive database never contains, so entries warmed in
// one mode must never serve the other. The mode rides the options
// fingerprint, giving the two modes disjoint key spaces by
// construction — in both directions.
func TestSweepModeSplitsKeys(t *testing.T) {
	dir := t.TempDir()
	m := simName(t, 0)
	ex := mustOpen(t, dir, core.Options{}, Config{})
	if err := ex.Store(testRecord(m, "mem_hier")); err != nil {
		t.Fatal(err)
	}
	ad := mustOpen(t, dir, core.Options{SweepMode: core.SweepAdaptive}, Config{})
	if _, ok := ad.Lookup(m, "mem_hier"); ok {
		t.Fatal("adaptive run hit an exhaustive-mode fragment")
	}
	if err := ad.Store(testRecord(m, "ext_memvar")); err != nil {
		t.Fatal(err)
	}
	ex2 := mustOpen(t, dir, core.Options{}, Config{})
	if _, ok := ex2.Lookup(m, "ext_memvar"); ok {
		t.Fatal("exhaustive run hit an adaptive-mode fragment")
	}
	// Explicit exhaustive and the default empty mode normalize to the
	// same fingerprint, so they share keys.
	exExplicit := mustOpen(t, dir, core.Options{SweepMode: core.SweepExhaustive}, Config{})
	if _, ok := exExplicit.Lookup(m, "mem_hier"); !ok {
		t.Fatal("explicit exhaustive mode split the key space from the default")
	}
	// Reopening in the adaptive mode shares its keys.
	ad2 := mustOpen(t, dir, core.Options{SweepMode: core.SweepAdaptive}, Config{})
	if _, ok := ad2.Lookup(m, "ext_memvar"); !ok {
		t.Fatal("the adaptive key space did not survive a reopen")
	}
}

// TestCorruptFragmentQuarantined flips one payload byte and proves the
// lookup misses, the fragment lands in quarantine/ (not deleted), and
// a recompute-and-store round trip heals the cache.
func TestCorruptFragmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, core.Options{}, Config{})
	m := simName(t, 0)
	rec := testRecord(m, "table2")
	if err := c.Store(rec); err != nil {
		t.Fatal(err)
	}
	key, ok := c.keyFor(m, "table2")
	if !ok {
		t.Fatal("catalog machine reported uncacheable")
	}
	path := c.unitPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40 // flip a payload bit
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Lookup(m, "table2"); ok {
		t.Fatal("corrupt fragment served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt fragment still at its unit path")
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("quarantine holds %d files (err %v), want 1", len(quarantined), err)
	}
	// Recompute: a fresh store must serve again.
	if err := c.Store(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(m, "table2"); !ok {
		t.Fatal("miss after recompute")
	}
}

// TestTruncatedFragmentQuarantined covers the torn-write shape: a
// fragment cut mid-payload must miss and quarantine, and repeated
// corruption must not clobber earlier quarantined evidence.
func TestTruncatedFragmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, core.Options{}, Config{})
	m := simName(t, 0)
	rec := testRecord(m, "table2")
	key, _ := c.keyFor(m, "table2")
	path := c.unitPath(key)
	for i := 0; i < 2; i++ {
		if err := c.Store(rec); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Lookup(m, "table2"); ok {
			t.Fatal("truncated fragment served as a hit")
		}
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if len(quarantined) != 2 {
		t.Errorf("quarantine holds %d files, want 2 (suffixing must not clobber)", len(quarantined))
	}
}

// TestWrongIdentityQuarantined proves a verified-but-misfiled fragment
// (valid hash, wrong machine/key inside) is rejected: content
// addressing is not trusted to imply identity.
func TestWrongIdentityQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, core.Options{}, Config{})
	m0, m1 := simName(t, 0), simName(t, 1)
	if err := c.Store(testRecord(m0, "table2")); err != nil {
		t.Fatal(err)
	}
	k0, _ := c.keyFor(m0, "table2")
	k1, _ := c.keyFor(m1, "table2")
	data, err := os.ReadFile(c.unitPath(k0))
	if err != nil {
		t.Fatal(err)
	}
	// A byte-for-byte valid fragment under the wrong key.
	if err := os.WriteFile(c.unitPath(k1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(m1, "table2"); ok {
		t.Fatal("fragment with mismatched identity served as a hit")
	}
	if _, err := os.Stat(c.unitPath(k1)); !os.IsNotExist(err) {
		t.Error("misfiled fragment was not quarantined")
	}
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	m := simName(t, 0)
	rw := mustOpen(t, dir, core.Options{}, Config{})
	if err := rw.Store(testRecord(m, "table2")); err != nil {
		t.Fatal(err)
	}
	key, _ := rw.keyFor(m, "table2")
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(rw.unitPath(key), old, old); err != nil {
		t.Fatal(err)
	}

	ro := mustOpen(t, dir, core.Options{}, Config{ReadOnly: true})
	if _, ok := ro.Lookup(m, "table2"); !ok {
		t.Fatal("read-only cache missed an existing fragment")
	}
	if err := ro.Store(testRecord(m, "table7")); err != nil {
		t.Fatal(err)
	}
	if _, ok := ro.Lookup(m, "table7"); ok {
		t.Fatal("read-only cache persisted a store")
	}
	if s := ro.Stats(); s.Stored != 0 || s.BytesWritten != 0 {
		t.Errorf("read-only cache counted writes: %s", s)
	}
	// Read-only hits must not refresh recency either.
	info, err := os.Stat(rw.unitPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if info.ModTime().After(old.Add(time.Minute)) {
		t.Error("read-only lookup touched the fragment mtime")
	}
}

// TestEvictionLRU caps the cache below three fragments and proves the
// least-recently-used one goes: recency is refreshed by hits, the
// just-written fragment is exempt, and eviction counts surface in
// Stats.
func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	m := simName(t, 0)
	pad := strings.Repeat("x", 512)
	rec := func(key string) core.JournalRecord {
		r := testRecord(m, key)
		r.Entries[1].Attrs["pad"] = pad
		return r
	}
	probe := mustOpen(t, dir, core.Options{}, Config{})
	if err := probe.Store(rec("a")); err != nil {
		t.Fatal(err)
	}
	ka, _ := probe.keyFor(m, "a")
	info, err := os.Stat(probe.unitPath(ka))
	if err != nil {
		t.Fatal(err)
	}
	size := info.Size()

	c := mustOpen(t, dir, core.Options{}, Config{MaxBytes: 2*size + size/2})
	if err := c.Store(rec("b")); err != nil {
		t.Fatal(err)
	}
	// Age both, then make "a" recently used again.
	kb, _ := c.keyFor(m, "b")
	for i, k := range []string{ka, kb} {
		old := time.Now().Add(-time.Duration(i+1) * time.Hour)
		if err := os.Chtimes(c.unitPath(k), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Lookup(m, "a"); !ok {
		t.Fatal("miss on fragment a")
	}
	// Storing "c" exceeds the cap; "b" is now the LRU and must go.
	if err := c.Store(rec("c")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(m, "b"); ok {
		t.Fatal("LRU fragment survived eviction")
	}
	if _, ok := c.Lookup(m, "a"); !ok {
		t.Fatal("recently-used fragment was evicted")
	}
	if _, ok := c.Lookup(m, "c"); !ok {
		t.Fatal("just-written fragment was evicted")
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Errorf("stats show no evictions: %s", s)
	}
}

// TestConcurrentAccess hammers one cache from many goroutines — the
// fleet shape, where drive loops store and parallel machines look up
// at once. Run under -race by `make race`.
func TestConcurrentAccess(t *testing.T) {
	c := mustOpen(t, t.TempDir(), core.Options{}, Config{MaxBytes: 64 << 10})
	names := machines.Names()
	keys := []string{"table2", "table7", "mem_hier", "ctx", "ipc"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := names[(g+i)%len(names)]
				k := keys[(g*7+i)%len(keys)]
				if i%2 == 0 {
					if err := c.Store(testRecord(m, k)); err != nil {
						t.Error(err)
						return
					}
				} else if rec, ok := c.Lookup(m, k); ok {
					if rec.Machine != m || rec.Key != k {
						t.Errorf("lookup(%s,%s) returned %s/%s", m, k, rec.Machine, rec.Key)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFragmentDecodeRejects pins the decoder against the corruption
// shapes the fuzz target explores.
func TestFragmentDecodeRejects(t *testing.T) {
	good, err := encodeFragment(testRecord(simName(t, 0), "table2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeFragment(good); err != nil {
		t.Fatalf("valid fragment rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"header only":     []byte(fragmentHeader + "\n"),
		"bad header":      append([]byte("# not a fragment\n"), good...),
		"short digest":    []byte(fragmentHeader + "\nabcd\n{}\n"),
		"non-hex digest":  []byte(fragmentHeader + "\n" + strings.Repeat("z", 64) + "\n{}\n"),
		"no payload":      []byte(fragmentHeader + "\n" + strings.Repeat("a", 64) + "\n"),
		"hash mismatch":   []byte(fragmentHeader + "\n" + strings.Repeat("a", 64) + "\n{}\n"),
		"truncated":       good[:len(good)-3],
		"missing newline": good[:len(good)-1],
	}
	for name, data := range cases {
		if _, err := decodeFragment(data); err == nil {
			t.Errorf("%s: decode accepted bad input", name)
		}
	}
}
