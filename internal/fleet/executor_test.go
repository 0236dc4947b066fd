package fleet

// Tests that the coordinator runs its units through the suite's one
// executor: lookups before any worker starts, the in-process journal
// record sequence, and the in-process failure contract.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
	"repro/internal/rpcx"
)

// recorderSink captures the event stream.
type recorderSink struct {
	mu     sync.Mutex
	events []core.Event
}

func (r *recorderSink) Event(e core.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func (r *recorderSink) all() []core.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]core.Event(nil), r.events...)
}

// setProcs sets GOMAXPROCS — the in-process executor's width — for the
// rest of the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestFleetRefusedResumeStartsNoWorker: a resume journal whose first
// unit the run must refuse — a record without the run's configuration
// digest — fails the run before any worker process starts.
func TestFleetRefusedResumeStartsNoWorker(t *testing.T) {
	var buf bytes.Buffer
	jw, err := core.NewJournalWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := testMachines[0]
	adaptive := results.Entry{
		Benchmark: "bw_mem.read", Machine: m, Unit: "MB/s", Scalar: 1,
		Attrs: map[string]string{"sweep.mode": "adaptive"},
	}
	if err := jw.Record(core.JournalRecord{Machine: m, Key: "table2", Entries: []results.Entry{adaptive}}); err != nil {
		t.Fatal(err)
	}
	replay, err := core.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	obs := &testObserver{}
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Workers: 2, Resume: replay, Obs: obs,
	}
	_, err = c.Run(context.Background(), &results.DB{})
	if err == nil || !strings.Contains(err.Error(), "written under other run options") {
		t.Fatalf("err = %v, want the refused replay", err)
	}
	if up, _, _, _ := obs.counts(); up != 0 {
		t.Errorf("a refused run started %d workers, want 0", up)
	}
}

// journalRecords is a journal's record sequence as machine/key pairs.
func journalRecords(t *testing.T, journal []byte) []string {
	t.Helper()
	var recs []string
	for _, line := range strings.Split(strings.TrimSpace(string(journal)), "\n")[1:] {
		_, payload, _ := strings.Cut(line, " ")
		var rec struct{ Machine, Key string }
		if err := json.Unmarshal([]byte(payload), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec.Machine+"/"+rec.Key)
	}
	return recs
}

// TestFleetJournalSequence: in process at GOMAXPROCS 1, 2 and 4 and
// through the fleet with 1 and 2 workers, a journaled run writes the
// same bytes, its records in unit order, and UnitDone fires only
// once the unit's record is written.
func TestFleetJournalSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process runs are slow; skipped with -short")
	}
	// Table 5 produces its entries out of the database's sorted order.
	only := map[string]bool{"table5": true, "table7": true, "table16": true}
	var want []byte
	check := func(run string, journal []byte) {
		if want == nil {
			want = journal
			var order []string
			for _, m := range testMachines {
				for _, g := range core.GroupExperiments(core.Experiments(), only) {
					order = append(order, m+"/"+g.Key)
				}
			}
			if got := journalRecords(t, journal); strings.Join(got, " ") != strings.Join(order, " ") {
				t.Fatalf("%s: journal records %v, want unit order %v", run, got, order)
			}
			return
		}
		if !bytes.Equal(journal, want) {
			t.Errorf("%s: journal records %v, want %v", run, journalRecords(t, journal), journalRecords(t, want))
		}
	}
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		var journal bytes.Buffer
		jw, err := core.NewJournalWriter(&journal)
		if err != nil {
			t.Fatal(err)
		}
		r := &core.Runner{Opts: fastOpts(), Only: only, Journal: jw}
		for _, n := range testMachines {
			p, _ := machines.ByName(n)
			m, err := machines.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			r.Machines = append(r.Machines, m)
		}
		if _, err := r.Run(context.Background(), &results.DB{}); err != nil {
			t.Fatal(err)
		}
		check("in process", journal.Bytes())
	}
	for _, workers := range []int{1, 2} {
		var journal bytes.Buffer
		jw, err := core.NewJournalWriter(&journal)
		if err != nil {
			t.Fatal(err)
		}
		obs := &testObserver{}
		obs.onDone = func(done int) {
			// UnitDone runs on the executor's goroutine, which also
			// writes the journal.
			if n := bytes.Count(journal.Bytes(), []byte("\n")) - 1; n != done {
				t.Errorf("workers=%d: UnitDone #%d fired with %d records written", workers, done, n)
			}
		}
		c := &Coordinator{
			Machines: testMachines, Opts: fastOpts(), Only: only,
			Workers: workers, Journal: jw, Obs: obs,
		}
		if _, err := c.Run(context.Background(), &results.DB{}); err != nil {
			t.Fatal(err)
		}
		check("fleet", journal.Bytes())
	}
}

// scriptedWorker is a remote worker daemon that fails unit 1 at once
// and unit 0 after delay, and reports every other unit as an error too.
func scriptedWorker(t *testing.T, delay time.Duration) (addr string, stop func()) {
	t.Helper()
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	serve := func(c net.Conn) {
		defer wg.Done()
		defer c.Close()
		s := rpcx.NewSession(c, c)
		for {
			m, err := recvMsg(s)
			if err != nil {
				return
			}
			if m.Type != msgUnit {
				continue
			}
			if m.Seq == 0 {
				time.Sleep(delay)
			}
			res := &wireMsg{Type: msgResult, Seq: m.Seq, Err: fmt.Sprintf("unit %d failed", m.Seq)}
			if s.Send(res) != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go serve(c)
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		wg.Wait()
	}
}

// TestFleetFailureMatchesSerial: with two slots on a scripted worker
// that fails unit 1 at once and unit 0 later, the fleet returns unit
// 0's error — the lowest failing unit's, as a serial run would —
// brackets the failing machine with one MachineStarted and one
// MachineFinished carrying Err, and neither dispatches to, emits events
// for, nor merges anything of the machines after it.
func TestFleetFailureMatchesSerial(t *testing.T) {
	addr, stop := scriptedWorker(t, 300*time.Millisecond)
	defer stop()
	var journal bytes.Buffer
	jw, err := core.NewJournalWriter(&journal)
	if err != nil {
		t.Fatal(err)
	}
	events := &recorderSink{}
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Connect: []string{addr, addr}, Journal: jw, Events: events,
	}
	db := &results.DB{}
	_, err = c.Run(context.Background(), db)
	if want := testMachines[0] + ": unit 0 failed"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	var got []string
	for _, e := range events.all() {
		got = append(got, string(e.Kind)+" "+e.Machine+" "+e.Err)
	}
	want := []string{
		"machine_started " + testMachines[0] + " ",
		"machine_finished " + testMachines[0] + " unit 0 failed",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if db.Len() != 0 || bytes.Count(journal.Bytes(), []byte("\n")) != 1 {
		t.Errorf("merged %d entries and journaled %q, want nothing", db.Len(), journal.Bytes())
	}
}

// idleDeathObserver closes down when the first worker leaves the pool.
type idleDeathObserver struct {
	noopObserver
	once sync.Once
	down chan struct{}
}

func (o *idleDeathObserver) WorkerDown(string, error) { o.once.Do(func() { close(o.down) }) }

// gatedCache misses every unit; its second lookup returns only after
// gate closes and the coordinator has had time to finish retiring the
// worker it lost.
type gatedCache struct {
	lookups atomic.Int64
	gate    <-chan struct{}
}

func (c *gatedCache) Lookup(machine, key string) (core.JournalRecord, bool) {
	if c.lookups.Add(1) == 2 {
		select {
		case <-c.gate:
			time.Sleep(100 * time.Millisecond)
		case <-time.After(10 * time.Second):
		}
	}
	return core.JournalRecord{}, false
}

func (c *gatedCache) Store(core.JournalRecord) error { return nil }

// TestFleetIdlePeerDeathFailsNextUnit: a fleet of one remote worker
// that dies while idle — between two fresh units, with no unit open —
// fails the next unit instead of queueing it where no worker will take
// it.
func TestFleetIdlePeerDeathFailsNextUnit(t *testing.T) {
	prev := idlePingInterval
	idlePingInterval = 20 * time.Millisecond
	t.Cleanup(func() { idlePingInterval = prev })
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// Answer the first unit, then hang up while idle.
		defer c.Close()
		s := rpcx.NewSession(c, c)
		for {
			m, err := recvMsg(s)
			if err != nil {
				return
			}
			if m.Type == msgUnit {
				s.Send(&wireMsg{Type: msgResult, Seq: m.Seq})
				return
			}
		}
	}()
	obs := &idleDeathObserver{down: make(chan struct{})}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := &Coordinator{
		Machines: testMachines[:1], Opts: fastOpts(), Only: map[string]bool{"table7": true, "table16": true},
		Connect: []string{ln.Addr().String()}, Cache: &gatedCache{gate: obs.down}, Obs: obs,
	}
	_, err = c.Run(ctx, &results.DB{})
	if err == nil || !strings.Contains(err.Error(), "worker pool died") {
		t.Errorf("err = %v, want the worker pool's death", err)
	}
	<-served
}
