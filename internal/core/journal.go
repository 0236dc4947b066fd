package core

// This file implements the crash-safe run journal behind
// `lmbench -journal` / `lmbench -resume`. The executor appends one
// checksummed JSON line per completed (machine, experiment-group)
// unit, in unit order, so a run killed mid-suite — ^C, kill -9, OOM —
// loses only the experiment that was in flight. Resuming replays the
// journaled results into the database and re-runs the remainder; the
// resumed database encodes byte-identically to an uninterrupted run
// because replay happens at the same place in the suite's
// deterministic iteration order as live execution.
//
// Format: a comment header line, then one record per line:
//
//	<crc32-hex> <json>
//
// The checksum covers the JSON payload. A torn final line — the
// in-flight write a crash cut short — fails its checksum (or does not
// parse) and is tolerated; corruption anywhere earlier is an error.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/results"
)

const journalHeader = "# lmbench-go journal v1"

// JournalRecord is one completed unit of suite work: the entries (or
// the skip) produced by one experiment-group run on one machine.
type JournalRecord struct {
	// Machine is the machine's results-database name.
	Machine string `json:"machine"`
	// Key is the experiment's run key (Experiment.RunKey, or the ID
	// when it runs alone): the unit of execution and of replay.
	Key string `json:"key"`
	// Config is the ConfigDigest of the run that journaled the record;
	// a resume under another digest is refused. Records in the unit
	// cache, whose key already covers the configuration, carry none.
	Config string `json:"config,omitempty"`
	// Skipped records an ErrUnsupported outcome; Err carries its text.
	Skipped bool   `json:"skipped,omitempty"`
	Err     string `json:"error,omitempty"`
	// Entries are the database entries the run produced, in order.
	Entries []results.Entry `json:"entries,omitempty"`
}

// ConfigDigest digests what a unit's result bytes take from the run's
// configuration — the inputs a unit-cache key takes from it: the
// options fingerprint (sweep mode included) and the quality gate's
// canonical budget (MaxRSD, QualityBudget). Every journal record
// carries its run's digest, so a journal written under other options
// never replays into a run: its -fast records cannot fill a full-size
// database, nor exhaustive sweeps an adaptive one.
func ConfigDigest(o Options, maxRSD float64, qualityRetries int) (string, error) {
	fp, err := o.Fingerprint()
	if err != nil {
		return "", err
	}
	maxRSD = max(maxRSD, 0)
	sum := sha256.Sum256([]byte(fmt.Sprintf("options %s\nquality %g %d\n", fp, maxRSD, QualityBudget(maxRSD, qualityRetries))))
	return hex.EncodeToString(sum[:]), nil
}

// syncer is the subset of *os.File the writer uses to make each record
// durable before reporting the experiment complete.
type syncer interface {
	Sync() error
}

// JournalWriter appends checksummed records to a journal stream. It is
// safe for concurrent use; each record is emitted as a single Write so
// a crash can tear at most the final line.
type JournalWriter struct {
	mu    sync.Mutex
	w     io.Writer
	bytes atomic.Int64
}

// NewJournalWriter starts a fresh journal on w, writing the header.
func NewJournalWriter(w io.Writer) (*JournalWriter, error) {
	if _, err := io.WriteString(w, journalHeader+"\n"); err != nil {
		return nil, fmt.Errorf("core: journal header: %w", err)
	}
	return &JournalWriter{w: w}, nil
}

// AppendJournalWriter continues an existing journal on w (the header is
// already present). The caller must have positioned w at the end of
// the last valid record — see JournalReplay.ValidBytes.
func AppendJournalWriter(w io.Writer) *JournalWriter {
	return &JournalWriter{w: w}
}

// Record appends one record and, when the underlying stream supports
// it, syncs it to stable storage.
func (jw *JournalWriter) Record(rec JournalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("core: journal encode: %w", err)
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(b), b)
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if _, err := io.WriteString(jw.w, line); err != nil {
		return fmt.Errorf("core: journal write: %w", err)
	}
	if s, ok := jw.w.(syncer); ok {
		if err := s.Sync(); err != nil {
			return fmt.Errorf("core: journal sync: %w", err)
		}
	}
	jw.bytes.Add(int64(len(line)))
	return nil
}

// BytesWritten reports the cumulative record bytes this writer has
// durably appended (header excluded). Safe to read concurrently with
// Record — it feeds the observability layer's journal gauge.
func (jw *JournalWriter) BytesWritten() int64 { return jw.bytes.Load() }

type journalKey struct{ machine, key string }

// JournalReplay is a parsed journal: the completed work a resumed run
// replays instead of re-executing.
type JournalReplay struct {
	recs map[journalKey]JournalRecord
	// ValidBytes is the byte offset just past the last valid record.
	// A resuming caller truncates the journal file here before
	// appending, so a torn final line never corrupts new records.
	ValidBytes int64
}

// Len returns the number of replayable records.
func (jr *JournalReplay) Len() int { return len(jr.recs) }

// Lookup returns the journaled record for (machine, run key).
func (jr *JournalReplay) Lookup(machine, key string) (JournalRecord, bool) {
	rec, ok := jr.recs[journalKey{machine, key}]
	return rec, ok
}

// ReadJournal parses a journal stream. A torn final line (truncated
// mid-write by a crash) is dropped; a checksum or parse failure on any
// earlier line is corruption and an error. An empty stream yields an
// empty replay.
func ReadJournal(r io.Reader) (*JournalReplay, error) {
	br := bufio.NewReader(r)
	jr := &JournalReplay{recs: map[journalKey]JournalRecord{}}
	var offset int64
	lineNo := 0
	sawHeader := false
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("core: journal read: %w", err)
		}
		if line == "" {
			break
		}
		if err == io.EOF {
			// Unterminated final line: the write a crash cut short.
			// Drop it — even if it happens to parse, keeping it would
			// leave the file without a trailing newline and corrupt
			// the next appended record. Resume re-runs that unit.
			break
		}
		lineNo++
		rec, perr := parseJournalLine(line, lineNo, &sawHeader)
		if perr != nil {
			return nil, perr
		}
		if rec != nil {
			jr.recs[journalKey{rec.Machine, rec.Key}] = *rec
		}
		offset += int64(len(line))
	}
	jr.ValidBytes = offset
	return jr, nil
}

// parseJournalLine parses one journal line; nil record for header and
// blank lines.
func parseJournalLine(line string, lineNo int, sawHeader *bool) (*JournalRecord, error) {
	trimmed := strings.TrimRight(line, "\n")
	if trimmed == "" {
		return nil, nil
	}
	if strings.HasPrefix(trimmed, "#") {
		if trimmed == journalHeader {
			*sawHeader = true
			return nil, nil
		}
		return nil, fmt.Errorf("core: journal line %d: unknown header %q", lineNo, trimmed)
	}
	if !*sawHeader {
		return nil, fmt.Errorf("core: journal line %d: missing %q header", lineNo, journalHeader)
	}
	sum, payload, ok := strings.Cut(trimmed, " ")
	if !ok {
		return nil, fmt.Errorf("core: journal line %d: no checksum separator", lineNo)
	}
	want, err := strconv.ParseUint(sum, 16, 32)
	if err != nil {
		return nil, fmt.Errorf("core: journal line %d: bad checksum field: %w", lineNo, err)
	}
	if got := crc32.ChecksumIEEE([]byte(payload)); got != uint32(want) {
		return nil, fmt.Errorf("core: journal line %d: checksum mismatch (%08x != %08x)", lineNo, got, want)
	}
	var rec JournalRecord
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		return nil, fmt.Errorf("core: journal line %d: %w", lineNo, err)
	}
	if rec.Machine == "" || rec.Key == "" {
		return nil, fmt.Errorf("core: journal line %d: record needs machine and key", lineNo)
	}
	return &rec, nil
}
