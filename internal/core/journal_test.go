package core_test

// Tests for the crash-safe run journal: the wire format (checksums,
// torn-line tolerance, corruption detection) and the headline
// guarantee that a run killed mid-suite and resumed from its journal
// encodes a database byte-identical to an uninterrupted run — serial
// and parallel, including resuming across a torn final line.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
)

func journalRecords() []core.JournalRecord {
	return []core.JournalRecord{
		{
			Machine: "Linux/i686", Key: "table7",
			Entries: []results.Entry{{
				Benchmark: "lat_syscall", Machine: "Linux/i686", Unit: "us", Scalar: 4.2,
				Attrs: map[string]string{"quality.samples": "11", "quality.spread": "0.03"},
			}},
		},
		{Machine: "Linux/i686", Key: "table17", Skipped: true, Err: "disk: unsupported"},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw, err := core.NewJournalWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := journalRecords()
	for _, rec := range recs {
		if err := jw.Record(rec); err != nil {
			t.Fatal(err)
		}
	}

	jr, err := core.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if jr.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", jr.Len(), len(recs))
	}
	if jr.ValidBytes != int64(buf.Len()) {
		t.Errorf("ValidBytes = %d, want %d", jr.ValidBytes, buf.Len())
	}
	for _, want := range recs {
		got, ok := jr.Lookup(want.Machine, want.Key)
		if !ok {
			t.Fatalf("Lookup(%q, %q) missing", want.Machine, want.Key)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Lookup(%q, %q) = %+v, want %+v", want.Machine, want.Key, got, want)
		}
	}
}

func TestJournalEmptyAndHeaderOnly(t *testing.T) {
	jr, err := core.ReadJournal(strings.NewReader(""))
	if err != nil || jr.Len() != 0 || jr.ValidBytes != 0 {
		t.Errorf("empty stream: jr=%+v err=%v", jr, err)
	}
	var buf bytes.Buffer
	if _, err := core.NewJournalWriter(&buf); err != nil {
		t.Fatal(err)
	}
	jr, err = core.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil || jr.Len() != 0 {
		t.Errorf("header-only stream: jr=%+v err=%v", jr, err)
	}
	if jr.ValidBytes != int64(buf.Len()) {
		t.Errorf("header-only ValidBytes = %d, want %d", jr.ValidBytes, buf.Len())
	}
}

// TestJournalTornFinalLine: an unterminated final line — whatever a
// crash left behind — is dropped and excluded from ValidBytes, whether
// it is garbage, a checksum-valid prefix, or even a complete record
// missing only its newline.
func TestJournalTornFinalLine(t *testing.T) {
	var buf bytes.Buffer
	jw, err := core.NewJournalWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Record(journalRecords()[0]); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()

	// A second, complete record that we then tear at various points.
	if err := jw.Record(journalRecords()[1]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{
		whole + 1,      // one byte of the next record
		len(full) - 10, // most of it
		len(full) - 1,  // everything but the newline
	} {
		jr, err := core.ReadJournal(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if jr.Len() != 1 {
			t.Errorf("cut at %d: Len = %d, want 1", cut, jr.Len())
		}
		if jr.ValidBytes != int64(whole) {
			t.Errorf("cut at %d: ValidBytes = %d, want %d", cut, jr.ValidBytes, whole)
		}
	}
}

// TestJournalCorruptionDetected: damage anywhere before the final line
// is not crash debris — it must surface as an error, not silent data
// loss.
func TestJournalCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	jw, err := core.NewJournalWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range journalRecords() {
		if err := jw.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	good := buf.Bytes()

	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x01
		return out
	}
	// Flip a payload byte of the first record (terminated line).
	idx := bytes.Index(good, []byte("lat_syscall"))
	if _, err := core.ReadJournal(bytes.NewReader(flip(good, idx))); err == nil {
		t.Error("payload corruption in a complete line went undetected")
	}
	// A terminated final line with a bad checksum is corruption too: a
	// crash tears the newline off, it does not rewrite bytes.
	idx = bytes.Index(good, []byte("table17"))
	if _, err := core.ReadJournal(bytes.NewReader(flip(good, idx))); err == nil {
		t.Error("corrupt terminated final line went undetected")
	}
	// A journal without its header is not a journal.
	if _, err := core.ReadJournal(strings.NewReader("deadbeef {}\n")); err == nil {
		t.Error("missing header went undetected")
	}
}

// cancelSink kills the run after the first completed experiment,
// standing in for a crash at a deterministic point: the cancellation
// happens synchronously inside the event callback, before the suite
// loop reaches its next iteration.
type cancelSink struct {
	cancel context.CancelFunc
	mu     sync.Mutex
	fired  bool
}

func (c *cancelSink) Event(e core.Event) {
	if e.Kind == core.ExperimentFinished {
		c.mu.Lock()
		if !c.fired {
			c.fired = true
			c.cancel()
		}
		c.mu.Unlock()
	}
}

// resumeSubset covers the kill-and-resume guarantee's hardest case:
// besides the memory, OS and IPC groups, it includes table10 — the
// context-switch sweep, whose randomly placed cache footprints made
// results depend on earlier experiments' heap and cache state until
// the suite began resetting machines per attempt (core.Resetter). A
// resumed run replays earlier groups instead of executing them, so any
// such history dependence breaks byte-identity exactly here.
func resumeSubset() map[string]bool {
	return map[string]bool{"table2": true, "table7": true, "table10": true, "table11": true}
}

// TestKillAndResumeByteIdentical is the tentpole guarantee: kill a
// journaled run mid-suite, resume from the journal, and the resulting
// database encodes byte-for-byte the same as a run that was never
// interrupted. Exercised serially, in parallel, and with the journal's
// final line torn as a crash would leave it. The kill point is the
// first finished experiment, which must also be the first unit in unit
// order for the journal to hold it, so the test pins GOMAXPROCS to 1:
// at higher widths a later, quicker unit can finish first, and the
// kill then cancels every unit before anything is journaled.
func TestKillAndResumeByteIdentical(t *testing.T) {
	setProcs(t, 1)
	names := []string{"Linux/i686", "Linux/i586"}
	targets := func() []core.Machine {
		ms := make([]core.Machine, len(names))
		for i, n := range names {
			ms[i] = simMachine(t, n)
		}
		return ms
	}
	const totalUnits = 8 // {table2, table7, ctx, ipc} x two machines

	// The reference: one uninterrupted serial run.
	want := &results.DB{}
	r := &core.Runner{Machines: targets(), Opts: smallOpts(), Only: resumeSubset()}
	if _, err := r.Run(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	wantBytes := encodeDB(t, want)

	for _, tc := range []struct {
		name     string
		parallel int
		tear     bool
	}{
		{"serial", 1, false},
		{"parallel", 2, false},
		{"serial_torn_tail", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")

			// Phase 1: journaled run, killed after the first completed
			// experiment.
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			jw, err := core.NewJournalWriter(f)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ir := &core.Runner{
				Machines: targets(), Opts: smallOpts(), Only: resumeSubset(),
				Parallel: tc.parallel, Journal: jw,
				Events: &cancelSink{cancel: cancel},
			}
			if _, err := ir.Run(ctx, &results.DB{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
			}
			if tc.tear {
				// Simulate the crash cutting a record short.
				if _, err := f.Write([]byte("5f3ab90c {\"machine\":\"Linux")); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			// Phase 2: resume from the journal, exactly as cmd/lmbench
			// does — parse, truncate past the last valid record, append.
			f, err = os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			replay, err := core.ReadJournal(f)
			if err != nil {
				t.Fatal(err)
			}
			if replay.Len() == 0 || replay.Len() >= totalUnits {
				t.Fatalf("interrupted journal has %d records, want a strict mid-run subset of %d", replay.Len(), totalUnits)
			}
			if err := f.Truncate(replay.ValidBytes); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				t.Fatal(err)
			}
			rec := &recorderSink{}
			rr := &core.Runner{
				Machines: targets(), Opts: smallOpts(), Only: resumeSubset(),
				Parallel: tc.parallel,
				Journal:  core.AppendJournalWriter(f), Resume: replay,
				Events: rec,
			}
			got := &results.DB{}
			if _, err := rr.Run(context.Background(), got); err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}

			if !bytes.Equal(encodeDB(t, got), wantBytes) {
				t.Error("resumed database differs from the uninterrupted run")
			}
			if n := len(rec.byKind(core.ExperimentReplayed)); n != replay.Len() {
				t.Errorf("replayed events = %d, want %d", n, replay.Len())
			}
			if n := len(rec.byKind(core.ExperimentFinished)) + replay.Len(); n != totalUnits {
				t.Errorf("finished+replayed = %d, want %d", n, totalUnits)
			}

			// The appended journal now covers the whole run and reads
			// back clean — a second resume would replay everything.
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			final, err := core.ReadJournal(f)
			if err != nil {
				t.Fatal(err)
			}
			if final.Len() != totalUnits {
				t.Errorf("final journal has %d records, want %d", final.Len(), totalUnits)
			}
		})
	}
}

// TestResumeReplaysSkips: a journaled unsupported-skip replays as a
// skip — the resumed run must not retry the probe.
func TestResumeReplaysSkips(t *testing.T) {
	var buf bytes.Buffer
	jw, err := core.NewJournalWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Record(core.JournalRecord{
		Machine: "Linux/i686", Key: "table7", Skipped: true, Err: "simulated",
	}); err != nil {
		t.Fatal(err)
	}
	replay, err := core.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	rec := &recorderSink{}
	s := &core.Suite{
		M: simMachine(t, "Linux/i686"), Opts: smallOpts(),
		Only: map[string]bool{"table7": true}, Resume: replay, Events: rec,
	}
	db := &results.DB{}
	skipped, err := s.Run(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "table7" {
		t.Errorf("skipped = %v, want [table7]", skipped)
	}
	if len(rec.byKind(core.ExperimentReplayed)) != 1 {
		t.Error("skip replay emitted no replayed event")
	}
	if len(rec.byKind(core.ExperimentStarted)) != 0 {
		t.Error("replayed skip was re-executed")
	}
	if _, ok := db.Get("lat_syscall", "Linux/i686"); ok {
		t.Error("replayed skip produced entries")
	}
}

// mapCache is an in-memory core.UnitCache that counts its traffic.
type mapCache struct {
	recs          map[string]core.JournalRecord
	lookups, puts int
}

func (c *mapCache) Lookup(machine, key string) (core.JournalRecord, bool) {
	c.lookups++
	rec, ok := c.recs[machine+"/"+key]
	return rec, ok
}

func (c *mapCache) Store(rec core.JournalRecord) error {
	c.puts++
	c.recs[rec.Machine+"/"+rec.Key] = rec
	return nil
}

// TestUnitLog pins the one unit pipeline both executors share: resume
// wins over the cache (and is mode-checked), a settled cache hit is
// journaled, a miss recalls nothing, and Commit journals before it
// caches.
func TestUnitLog(t *testing.T) {
	entry := func(machine string, attrs map[string]string) []results.Entry {
		return []results.Entry{{Benchmark: "lat_syscall", Machine: machine, Unit: "microseconds", Scalar: 1, Attrs: attrs}}
	}
	var prev bytes.Buffer
	jw, err := core.NewJournalWriter(&prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []core.JournalRecord{
		{Machine: "m", Key: "table7", Entries: entry("m", nil)},
		{Machine: "m", Key: "mem_hier", Entries: entry("m", map[string]string{"sweep.mode": "adaptive"})},
	} {
		if err := jw.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	replay, err := core.ReadJournal(&prev)
	if err != nil {
		t.Fatal(err)
	}
	cache := &mapCache{recs: map[string]core.JournalRecord{
		"m/table7": {Machine: "m", Key: "table7", Entries: entry("m", map[string]string{"from": "cache"})},
		"m/table8": {Machine: "m", Key: "table8", Entries: entry("m", nil)},
	}}
	var out bytes.Buffer
	journal, err := core.NewJournalWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	log := core.UnitLog{Resume: replay, Cache: cache, Journal: journal, Mode: core.SweepExhaustive}

	rec, kind, err := log.Lookup("m", "table7")
	if err != nil || kind != core.ExperimentReplayed || rec.Entries[0].Attrs["from"] == "cache" {
		t.Errorf("table7: kind %q, err %v — the resume journal must win over the cache", kind, err)
	}
	if err := log.Settle(rec, kind); err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.Lookup("m", "mem_hier"); err == nil || !strings.Contains(err.Error(), "adaptive-sweep results") {
		t.Errorf("cross-mode replay: err = %v", err)
	}
	rec, kind, err = log.Lookup("m", "table8")
	if err != nil || kind != core.ExperimentCached || rec.Key != "table8" {
		t.Errorf("table8: kind %q, err %v, want a cache hit", kind, err)
	}
	if err := log.Settle(rec, kind); err != nil {
		t.Fatal(err)
	}
	if _, kind, err := log.Lookup("m", "table9"); err != nil || kind != "" {
		t.Errorf("table9: kind %q, err %v, want a miss", kind, err)
	}
	fresh := core.JournalRecord{Machine: "m", Key: "table9", Entries: entry("m", nil)}
	if err := log.Commit(fresh); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.recs["m/table9"]; !ok || cache.puts != 1 {
		t.Errorf("Commit stored %d records in the cache, want the fresh one", cache.puts)
	}
	written, err := core.ReadJournal(&out)
	if err != nil {
		t.Fatal(err)
	}
	if written.Len() != 2 {
		t.Fatalf("journal holds %d records, want the cache hit and the commit", written.Len())
	}
	for _, key := range []string{"table8", "table9"} {
		if _, ok := written.Lookup("m", key); !ok {
			t.Errorf("journal lacks %s", key)
		}
	}
	if _, _, err := (core.UnitLog{}).Lookup("m", "table7"); err != nil {
		t.Errorf("zero UnitLog: %v", err)
	}
	if err := (core.UnitLog{}).Commit(fresh); err != nil {
		t.Errorf("zero UnitLog Commit: %v", err)
	}
}
