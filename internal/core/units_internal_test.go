package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/results"
)

// mapCache is an in-memory UnitCache that counts its stores.
type mapCache struct {
	recs map[string]JournalRecord
	puts int
}

func (c *mapCache) Lookup(machine, key string) (JournalRecord, bool) {
	rec, ok := c.recs[machine+"/"+key]
	return rec, ok
}

func (c *mapCache) Store(rec JournalRecord) error {
	c.puts++
	c.recs[rec.Machine+"/"+rec.Key] = rec
	return nil
}

// TestUnitLog pins the one unit pipeline every executor run shares:
// resume wins over the cache (and is mode-checked), a settled cache hit
// is journaled, a miss recalls nothing, and a settled fresh unit is
// journaled before it is cached.
func TestUnitLog(t *testing.T) {
	entry := func(machine string, attrs map[string]string) []results.Entry {
		return []results.Entry{{Benchmark: "lat_syscall", Machine: machine, Unit: "microseconds", Scalar: 1, Attrs: attrs}}
	}
	var prev bytes.Buffer
	jw, err := NewJournalWriter(&prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []JournalRecord{
		{Machine: "m", Key: "table7", Entries: entry("m", nil)},
		{Machine: "m", Key: "mem_hier", Entries: entry("m", map[string]string{"sweep.mode": "adaptive"})},
	} {
		if err := jw.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	replay, err := ReadJournal(&prev)
	if err != nil {
		t.Fatal(err)
	}
	cache := &mapCache{recs: map[string]JournalRecord{
		"m/table7": {Machine: "m", Key: "table7", Entries: entry("m", map[string]string{"from": "cache"})},
		"m/table8": {Machine: "m", Key: "table8", Entries: entry("m", nil)},
	}}
	var out bytes.Buffer
	journal, err := NewJournalWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	log := unitLog{resume: replay, cache: cache, journal: journal, mode: SweepExhaustive}

	rec, kind, err := log.lookup("m", "table7")
	if err != nil || kind != ExperimentReplayed || rec.Entries[0].Attrs["from"] == "cache" {
		t.Errorf("table7: kind %q, err %v — the resume journal must win over the cache", kind, err)
	}
	if err := log.settle(rec, kind); err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.lookup("m", "mem_hier"); err == nil || !strings.Contains(err.Error(), "adaptive-sweep results") {
		t.Errorf("cross-mode replay: err = %v", err)
	}
	rec, kind, err = log.lookup("m", "table8")
	if err != nil || kind != ExperimentCached || rec.Key != "table8" {
		t.Errorf("table8: kind %q, err %v, want a cache hit", kind, err)
	}
	if err := log.settle(rec, kind); err != nil {
		t.Fatal(err)
	}
	if _, kind, err := log.lookup("m", "table9"); err != nil || kind != "" {
		t.Errorf("table9: kind %q, err %v, want a miss", kind, err)
	}
	fresh := JournalRecord{Machine: "m", Key: "table9", Entries: entry("m", nil)}
	if err := log.settle(fresh, ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.recs["m/table9"]; !ok || cache.puts != 1 {
		t.Errorf("settle stored %d records in the cache, want the fresh one", cache.puts)
	}
	written, err := ReadJournal(&out)
	if err != nil {
		t.Fatal(err)
	}
	if written.Len() != 2 {
		t.Fatalf("journal holds %d records, want the cache hit and the fresh unit", written.Len())
	}
	for _, key := range []string{"table8", "table9"} {
		if _, ok := written.Lookup("m", key); !ok {
			t.Errorf("journal lacks %s", key)
		}
	}
	if _, _, err := (unitLog{}).lookup("m", "table7"); err != nil {
		t.Errorf("zero unitLog: %v", err)
	}
	if err := (unitLog{}).settle(fresh, ""); err != nil {
		t.Errorf("zero unitLog settle: %v", err)
	}
}
