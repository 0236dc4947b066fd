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

// cancelSink kills the run once its first unit has finished, standing
// in for a crash at a deterministic point. The cancellation happens
// synchronously inside the event callback, and every other unit's
// attempt waits at its start until then, so at any GOMAXPROCS the first
// unit is the only one done: the journal holds exactly it.
type cancelSink struct {
	cancel              context.CancelFunc
	machine, experiment string
	done                chan struct{}
}

func (c *cancelSink) Event(e core.Event) {
	first := e.Machine == c.machine && e.Experiment == c.experiment
	switch {
	case e.Kind == core.ExperimentFinished && first:
		c.cancel()
		close(c.done)
	case e.Kind == core.ExperimentStarted && !first:
		<-c.done
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
// interrupted. Exercised serially, at GOMAXPROCS=2 (units of both
// machines in flight at once), and with the journal's final line torn
// as a crash would leave it. The kill point is the first unit's
// finished event.
func TestKillAndResumeByteIdentical(t *testing.T) {
	names := []string{"Linux/i686", "Linux/i586"}
	targets := func() []core.Machine {
		ms := make([]core.Machine, len(names))
		for i, n := range names {
			ms[i] = simMachine(t, n)
		}
		return ms
	}
	const totalUnits = 8 // {table2, table7, ctx, ipc} x two machines

	// The reference: one uninterrupted run.
	want := &results.DB{}
	r := &core.Runner{Machines: targets(), Opts: smallOpts(), Only: resumeSubset()}
	if _, err := r.Run(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	wantBytes := encodeDB(t, want)

	for _, tc := range []struct {
		name  string
		procs int
		tear  bool
	}{
		{"serial", 1, false},
		{"parallel", 2, false},
		{"serial_torn_tail", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setProcs(t, tc.procs)
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
				Journal: jw,
				Events:  &cancelSink{cancel: cancel, machine: names[0], experiment: "table2", done: make(chan struct{})},
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
			if replay.Len() != 1 {
				t.Fatalf("interrupted journal has %d records, want the first of %d", replay.Len(), totalUnits)
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
				Journal: core.AppendJournalWriter(f), Resume: replay,
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
	config, err := core.ConfigDigest(smallOpts(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Record(core.JournalRecord{
		Machine: "Linux/i686", Key: "table7", Config: config, Skipped: true, Err: "simulated",
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
