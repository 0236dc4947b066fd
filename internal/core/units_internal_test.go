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
// resume wins over the cache (and is checked against the run's
// configuration digest), a settled cache hit is journaled, a miss
// recalls nothing, and a settled fresh unit is journaled before it is
// cached, every journaled record under the run's digest.
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
		{Machine: "m", Key: "table7", Config: "run", Entries: entry("m", nil)},
		{Machine: "m", Key: "mem_hier", Config: "other", Entries: entry("m", map[string]string{"sweep.mode": "adaptive"})},
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
	log := unitLog{resume: replay, cache: cache, journal: journal, config: "run"}

	rec, kind, err := log.lookup("m", "table7")
	if err != nil || kind != ExperimentReplayed || rec.Entries[0].Attrs["from"] == "cache" {
		t.Errorf("table7: kind %q, err %v — the resume journal must win over the cache", kind, err)
	}
	if err := log.settle(rec, kind); err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.lookup("m", "mem_hier"); err == nil || !strings.Contains(err.Error(), "written under other run options") {
		t.Errorf("replay of another configuration's record: err = %v", err)
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
		if rec, ok := written.Lookup("m", key); !ok || rec.Config != "run" {
			t.Errorf("journal record %s: %+v, %v; want it under the run's digest", key, rec, ok)
		}
	}
	if cache.recs["m/table9"].Config != "" {
		t.Error("the cached record carries the journal's digest")
	}
	if _, _, err := (unitLog{}).lookup("m", "table7"); err != nil {
		t.Errorf("zero unitLog: %v", err)
	}
	if err := (unitLog{}).settle(fresh, ""); err != nil {
		t.Errorf("zero unitLog settle: %v", err)
	}
}

// TestResumeConfigCheck: a journal record replays only into a run with
// the configuration digest it was written under — the options
// fingerprint (sweep mode included) and the quality gate's canonical
// budget, what a unit-cache key takes from the configuration. A record
// without a digest never replays.
func TestResumeConfigCheck(t *testing.T) {
	type config struct {
		opts    Options
		maxRSD  float64
		retries int
	}
	adaptive := FastOptions()
	adaptive.SweepMode = SweepAdaptive
	fast, full := config{opts: FastOptions()}, config{}
	cases := []struct {
		name     string
		key      string
		journal  *config // nil: a record without a digest
		run      config
		replayed bool
	}{
		{"same options", "table2", &fast, fast, true},
		{"-fast journal into a full-size run", "table2", &fast, full, false},
		{"exhaustive sweep into adaptive", "mem_hier", &fast, config{opts: adaptive}, false},
		{"exhaustive other group into adaptive", "table2", &fast, config{opts: adaptive}, false},
		{"adaptive into exhaustive", "mem_hier", &config{opts: adaptive}, fast, false},
		{"quality gate on into off", "table2", &config{opts: FastOptions(), maxRSD: 0.05}, fast, false},
		{"quality retries 0 is the default budget of 2", "table2",
			&config{opts: FastOptions(), maxRSD: 0.05}, config{opts: FastOptions(), maxRSD: 0.05, retries: 2}, true},
		{"gate off ignores retries", "table2", &config{opts: FastOptions(), retries: 5}, fast, true},
		{"no digest", "table2", nil, fast, false},
	}
	digest := func(c config) string {
		d, err := ConfigDigest(c.opts, c.maxRSD, c.retries)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, c := range cases {
		rec := JournalRecord{Machine: "m", Key: c.key}
		if c.journal != nil {
			rec.Config = digest(*c.journal)
		}
		replay := &JournalReplay{recs: map[journalKey]JournalRecord{{"m", c.key}: rec}}
		_, kind, err := unitLog{resume: replay, config: digest(c.run)}.lookup("m", c.key)
		if kind != ExperimentReplayed || (err == nil) != c.replayed {
			t.Errorf("%s: kind %q, err %v; want replayed=%v", c.name, kind, err, c.replayed)
		}
	}
}
