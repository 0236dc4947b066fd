package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/ptime"
	"repro/internal/results"
	"repro/internal/rpcx"
	"repro/internal/simmem"
	"repro/internal/timing"
)

// TestMain lets this test binary serve as its own fleet worker: the
// coordinator tests spawn re-executions of it with WorkerEnv set.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// fastOpts shrinks the workloads so a multi-run test stays quick.
func fastOpts() core.Options {
	return core.Options{
		Timing:       timing.Options{MinSampleTime: 100 * ptime.Microsecond, Samples: 2},
		MemSize:      1 << 20,
		FileSize:     1 << 20,
		MaxChaseSize: 1 << 20,
		FSFiles:      50,
		CtxProcs:     []int{2, 4},
		CtxSizes:     []int64{0, 4 << 10},
	}
}

var testMachines = machines.Names()[:3]

var testOnly = map[string]bool{"table2": true, "table7": true, "table16": true}

// serialBytes runs the same selection serially and returns the encoded
// database — the byte-identity reference for every fleet test.
func serialBytes(t *testing.T) []byte {
	t.Helper()
	db := &results.DB{}
	for _, n := range testMachines {
		p, _ := machines.ByName(n)
		m, err := machines.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		s := &core.Suite{M: m, Opts: fastOpts(), Only: testOnly}
		if _, err := s.Run(context.Background(), db); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	return encode(t, db)
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// recvMsg reads the next protocol message from s.
func recvMsg(s interface{ Recv(any) error }) (*wireMsg, error) {
	var m wireMsg
	if err := s.Recv(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func encode(t *testing.T, db *results.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testObserver counts scheduling callbacks and fires a hook on unit
// completion; used to inject kills and cancellations mid-run.
type testObserver struct {
	mu         sync.Mutex
	up, down   int
	retried    int
	done       int
	dispatched int
	onDone     func(done int)
}

func (o *testObserver) WorkerUp(string) {
	o.mu.Lock()
	o.up++
	o.mu.Unlock()
}

func (o *testObserver) WorkerDown(string, error) {
	o.mu.Lock()
	o.down++
	o.mu.Unlock()
}

func (o *testObserver) QueueDepth(int, int) {}

func (o *testObserver) UnitDispatched(time.Duration) {
	o.mu.Lock()
	o.dispatched++
	o.mu.Unlock()
}

func (o *testObserver) UnitDone() {
	o.mu.Lock()
	o.done++
	done := o.done
	hook := o.onDone
	o.mu.Unlock()
	if hook != nil {
		hook(done)
	}
}

func (o *testObserver) UnitRetried() {
	o.mu.Lock()
	o.retried++
	o.mu.Unlock()
}

func (o *testObserver) counts() (up, down, retried, done int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.up, o.down, o.retried, o.done
}

// dramFor derives the DRAM timing a coordinator ships on the unit
// frames of the compiled profile name.
func dramFor(t *testing.T, name string) *simmem.DRAMConfig {
	t.Helper()
	p, ok := machines.ByName(name)
	if !ok {
		t.Fatalf("no compiled profile %q", name)
	}
	d, err := machines.DRAM(p)
	if err != nil {
		t.Fatal(err)
	}
	return &d
}

// TestProtocolRoundTrip: a unit frame keeps every field through the
// codec, its DRAM timing bit for bit.
func TestProtocolRoundTrip(t *testing.T) {
	opts := fastOpts()
	// Float64s whose shortest decimal forms run to 16 or 17 digits.
	dram := simmem.DRAMConfig{LatencyNS: 0.1 + 0.2, FillNS: math.Nextafter(471.35483870967744, 1), WritebackNS: 1 / 3.0}
	in := &wireMsg{
		Type: msgUnit, V: protoVersion, Seq: 7,
		Machine: "Linux/i686", Key: "mem_hier", IDs: []string{"figure1", "table6"},
		Opts: &opts, Extended: true,
		Timeout: time.Second, Retries: 2, RetryBackoff: 50 * time.Millisecond,
		MaxRSD: 0.1, QualityRetries: 3, DRAM: &dram,
	}
	var buf bytes.Buffer
	if err := rpcx.WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := recvMsg(rpcx.NewSession(&buf, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.V != in.V || out.Seq != in.Seq ||
		out.Machine != in.Machine || out.Key != in.Key || len(out.IDs) != 2 ||
		out.Timeout != in.Timeout || out.RetryBackoff != in.RetryBackoff ||
		out.MaxRSD != in.MaxRSD || !out.Extended {
		t.Errorf("round trip mangled the frame: %+v", out)
	}
	if out.Opts == nil || out.Opts.MemSize != opts.MemSize ||
		out.Opts.Timing.MinSampleTime != opts.Timing.MinSampleTime {
		t.Errorf("options did not survive: %+v", out.Opts)
	}
	if out.DRAM == nil {
		t.Fatal("the dram timing did not survive")
	}
	for _, f := range []struct {
		name    string
		in, out float64
	}{
		{"LatencyNS", dram.LatencyNS, out.DRAM.LatencyNS},
		{"FillNS", dram.FillNS, out.DRAM.FillNS},
		{"WritebackNS", dram.WritebackNS, out.DRAM.WritebackNS},
	} {
		if math.Float64bits(f.in) != math.Float64bits(f.out) {
			t.Errorf("dram %s: sent %x, received %x", f.name, math.Float64bits(f.in), math.Float64bits(f.out))
		}
	}
}

// serveOne starts a worker session over in-memory pipes. It returns
// the coordinator's end, a hang-up that closes the stream of units, and
// the session's exit error.
func serveOne() (*rpcx.Session, io.Closer, <-chan error) {
	toWorker, unitW := io.Pipe()
	resultR, fromWorker := io.Pipe()
	workErr := make(chan error, 1)
	go func() { workErr <- work(context.Background(), rpcx.NewSession(toWorker, fromWorker)) }()
	return rpcx.NewSession(resultR, unitW), unitW, workErr
}

// result sends unit u on s and returns its result frame, skipping the
// event frames before it.
func result(t *testing.T, s *rpcx.Session, u *wireMsg) *wireMsg {
	t.Helper()
	if err := s.Send(u); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := recvMsg(s)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == msgResult {
			if m.Seq != u.Seq {
				t.Fatalf("result for unit %d, want %d", m.Seq, u.Seq)
			}
			return m
		}
		if m.Type != msgEvent || m.Event == nil {
			t.Fatalf("unexpected frame %+v", m)
		}
	}
}

// TestWorkerServesUnits drives the worker loop directly over in-memory
// pipes: a well-formed unit produces entries; an unknown machine, a
// unit without a DRAM timing and a unit whose timing simmem refuses
// each get an error frame and the session goes on; and a version
// mismatch kills the session.
func TestWorkerServesUnits(t *testing.T) {
	s, _, workErr := serveOne()
	opts := fastOpts()
	unit := func(seq int, machine string, dram *simmem.DRAMConfig) *wireMsg {
		return &wireMsg{
			Type: msgUnit, V: protoVersion, Seq: seq,
			Machine: machine, Key: "table16", IDs: []string{"table16"}, Opts: &opts, DRAM: dram,
		}
	}
	if res := result(t, s, unit(1, testMachines[0], dramFor(t, testMachines[0]))); res.Err != "" || res.Record == nil || len(res.Record.Entries) == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res := result(t, s, unit(2, "no-such-machine", dramFor(t, testMachines[0]))); !strings.Contains(res.Err, "no-such-machine") {
		t.Fatalf("want unknown-machine error, got %+v", res)
	}
	// testMachines[1] is new to the session, so each frame reaches the
	// build.
	if res := result(t, s, unit(3, testMachines[1], nil)); !strings.Contains(res.Err, "dram") {
		t.Fatalf("want an error naming the missing dram timing, got %+v", res)
	}
	bad := *dramFor(t, testMachines[1])
	bad.WritebackNS = -1
	if res := result(t, s, unit(4, testMachines[1], &bad)); !strings.Contains(res.Err, "dram timing WritebackNS") {
		t.Fatalf("want an error naming the dram timing's WritebackNS, got %+v", res)
	}
	if res := result(t, s, unit(5, testMachines[1], dramFor(t, testMachines[1]))); res.Err != "" || res.Record == nil || len(res.Record.Entries) == 0 {
		t.Fatalf("after two refused frames: result = %+v", res)
	}

	u := unit(6, testMachines[0], dramFor(t, testMachines[0]))
	u.V = protoVersion + 1
	if err := s.Send(u); err != nil {
		t.Fatal(err)
	}
	if err := <-workErr; err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version-mismatch session error, got %v", err)
	}
}

// TestWorkerBuildsOnShippedDRAM: a worker assembles the machine on the
// DRAM timing its unit frame ships and derives none of its own. Table 2
// on Linux/i686 reads the DRAM fill time (checked in process first), so
// the same unit with FillNS doubled must return other entries, each
// equal to an in-process run on that timing.
func TestWorkerBuildsOnShippedDRAM(t *testing.T) {
	p, _ := machines.ByName("Linux/i686")
	shipped := dramFor(t, p.Name)
	doubled := *shipped
	doubled.FillNS *= 2
	opts := core.FastOptions()
	only := map[string]bool{"table2": true}
	var local, remote [2][]byte
	for i, dram := range []*simmem.DRAMConfig{shipped, &doubled} {
		m, err := machines.BuildWith(p, *dram)
		if err != nil {
			t.Fatal(err)
		}
		var rec unitRecord
		if _, err := (&core.Suite{M: m, Opts: opts, Only: only, Cache: &rec}).Run(context.Background(), &results.DB{}); err != nil {
			t.Fatal(err)
		}
		local[i] = entriesJSON(t, rec.Entries)

		// A fresh session each time: a session keeps its machines.
		s, hangUp, workErr := serveOne()
		res := result(t, s, &wireMsg{
			Type: msgUnit, V: protoVersion, Seq: 1,
			Machine: p.Name, Key: "table2", IDs: []string{"table2"}, Opts: &opts, DRAM: dram,
		})
		if res.Err != "" || res.Record == nil {
			t.Fatalf("FillNS %v: result = %+v", dram.FillNS, res)
		}
		remote[i] = entriesJSON(t, res.Record.Entries)
		hangUp.Close()
		if err := <-workErr; err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(local[0], local[1]) {
		t.Fatal("table2 on Linux/i686 does not read the DRAM fill time; pick a unit that does")
	}
	for i, label := range []string{"shipped", "FillNS doubled"} {
		if !bytes.Equal(remote[i], local[i]) {
			t.Errorf("%s timing: the worker's entries differ from an in-process build on it\nworker %s\nlocal  %s", label, remote[i], local[i])
		}
	}
}

func entriesJSON(t *testing.T, entries []results.Entry) []byte {
	t.Helper()
	b, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFleetMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process runs are slow; skipped with -short")
	}
	want := serialBytes(t)
	for _, workers := range []int{1, 2, 3} {
		t.Run(map[int]string{1: "workers=1", 2: "workers=2", 3: "workers=3"}[workers], func(t *testing.T) {
			db := &results.DB{}
			c := &Coordinator{
				Machines: testMachines, Opts: fastOpts(), Only: testOnly,
				Workers: workers,
			}
			if _, err := c.Run(context.Background(), db); err != nil {
				t.Fatal(err)
			}
			if got := encode(t, db); !bytes.Equal(got, want) {
				t.Errorf("fleet database differs from serial (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestFleetRunsShadowingFileProfile: a file profile that replaces
// Linux/i686 under the same name with another ReadBW has the compiled
// profile's geometry and another DRAM timing. A 2-worker fleet run of
// table2 must equal the in-process run of the file profile, which
// differs from the compiled profile's: the coordinator derives the
// timing it ships from the catalog's profile, never from the compiled
// profile of the same name.
func TestFleetRunsShadowingFileProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process runs are slow; skipped with -short")
	}
	compiled, _ := machines.ByName("Linux/i686")
	shadow := compiled
	shadow.ReadBW *= 1.5
	path := filepath.Join(t.TempDir(), "i686.json")
	if err := machines.WriteProfileFile(path, shadow); err != nil {
		t.Fatal(err)
	}
	cat := machines.Default()
	loaded, err := cat.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	only := map[string]bool{"table2": true}
	serial := func(p machines.Profile) []byte {
		m, err := machines.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		db := &results.DB{}
		if _, err := (&core.Suite{M: m, Opts: fastOpts(), Only: only}).Run(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		return encode(t, db)
	}
	want := serial(loaded)
	if bytes.Equal(want, serial(compiled)) {
		t.Fatal("the file profile's table2 equals the compiled profile's; shadow a field table2 reads")
	}
	db := &results.DB{}
	c := &Coordinator{Machines: []string{compiled.Name}, Catalog: cat, Opts: fastOpts(), Only: only, Workers: 2}
	if _, err := c.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if got := encode(t, db); !bytes.Equal(got, want) {
		t.Error("the fleet's table2 differs from the in-process run of the shadowing file profile")
	}
}

// TestServeMatchesSerial proves the TCP transport: a worker daemon in
// this process serves a coordinator dialing over loopback.
func TestServeMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process runs are slow; skipped with -short")
	}
	want := serialBytes(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ServeWith(ctx, ln, rpcx.ServeOptions{}) }()

	db := &results.DB{}
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Connect: []string{ln.Addr().String()},
	}
	if _, err := c.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if got := encode(t, db); !bytes.Equal(got, want) {
		t.Errorf("TCP fleet database differs from serial")
	}
	cancel()
	if err := <-served; err != nil && err != context.Canceled {
		t.Errorf("Serve: %v", err)
	}
}

// TestWorkerKillRedispatch SIGKILLs a live worker mid-run and proves
// the orphaned unit is re-dispatched: the run still completes with
// byte-identical results, and the pool reports the death and retry.
func TestWorkerKillRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process runs are slow; skipped with -short")
	}
	want := serialBytes(t)
	obs := &testObserver{}
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Workers: 2, Obs: obs,
	}
	var killOnce sync.Once
	obs.onDone = func(done int) {
		// After the first completion the pool is warm; kill one worker
		// while the rest of the queue is still draining.
		killOnce.Do(func() {
			if pids := c.WorkerPIDs(); len(pids) > 0 {
				_ = syscall.Kill(pids[0], syscall.SIGKILL)
			}
		})
	}
	db := &results.DB{}
	if _, err := c.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if got := encode(t, db); !bytes.Equal(got, want) {
		t.Errorf("post-kill fleet database differs from serial")
	}
	if _, down, _, done := obs.counts(); down == 0 || done != len(testMachines)*3 {
		t.Errorf("observer saw down=%d done=%d, want a worker death and %d units",
			down, done, len(testMachines)*3)
	}
}

// TestCoordinatorResume cancels a journaled fleet run partway through,
// then resumes it from the journal: already-completed units replay
// instead of re-running, and the final database is byte-identical.
func TestCoordinatorResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process runs are slow; skipped with -short")
	}
	want := serialBytes(t)
	path := filepath.Join(t.TempDir(), "fleet.jnl")

	// First run: cancel after two units land.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &testObserver{onDone: func(done int) {
		if done == 2 {
			cancel()
		}
	}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	jw, err := core.NewJournalWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Workers: 2, Journal: jw, Obs: obs,
	}
	if _, err := c.Run(ctx, &results.DB{}); err == nil {
		t.Fatal("cancelled run reported success")
	}
	_ = f.Close()

	// Second run: resume. Journaled units must replay, not re-run.
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := core.ReadJournal(rf)
	_ = rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if replay.Len() < 2 {
		t.Fatalf("journal holds %d records, want >= 2", replay.Len())
	}
	obs2 := &testObserver{}
	c2 := &Coordinator{
		Machines: testMachines, Opts: fastOpts(), Only: testOnly,
		Workers: 2, Resume: replay, Obs: obs2,
	}
	db := &results.DB{}
	if _, err := c2.Run(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	if got := encode(t, db); !bytes.Equal(got, want) {
		t.Errorf("resumed fleet database differs from serial")
	}
	if _, _, _, done := obs2.counts(); done != len(testMachines)*3 {
		t.Errorf("resume completed %d units, want %d", done, len(testMachines)*3)
	}
	up, _, _, _ := obs2.counts()
	if up == 0 {
		t.Error("resume spawned no workers despite remaining units")
	}
}

// TestNextBackoff: the pause schedule DialWith and re-dispatch follow
// starts at 100ms (rpcx.DialOptions' default first pause), doubles,
// and saturates at 30s.
func TestNextBackoff(t *testing.T) {
	first := 100 * time.Millisecond
	if got := core.NextBackoff(0); got != first {
		t.Errorf("first re-dispatch pause = %v, want the dial default %v", got, first)
	}
	d := first
	for i := 0; i < 20; i++ {
		d = core.NextBackoff(d)
	}
	if d != 30*time.Second {
		t.Errorf("backoff did not saturate: %v", d)
	}
	if got := core.NextBackoff(first); got != 2*first {
		t.Errorf("NextBackoff = %v, want %v", got, 2*first)
	}
}

func TestMachineNamesIn(t *testing.T) {
	var ms []core.Machine
	for _, n := range testMachines {
		p, _ := machines.ByName(n)
		m, err := machines.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	names, err := MachineNamesIn(nil, ms)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range testMachines {
		if names[i] != n {
			t.Errorf("names[%d] = %q, want %q", i, names[i], n)
		}
	}
	if _, err := MachineNamesIn(nil, []core.Machine{renamed{ms[0]}}); err == nil {
		t.Error("non-profile machine must be rejected")
	}
	// A catalog that knows the ad-hoc name makes it dispatchable.
	cat := machines.Default()
	p, _ := machines.ByName(testMachines[0])
	p.Name = "ad-hoc"
	if err := cat.Add(p, machines.SourceFile); err != nil {
		t.Fatal(err)
	}
	if got, err := MachineNamesIn(cat, []core.Machine{renamed{ms[0]}}); err != nil || got[0] != "ad-hoc" {
		t.Errorf("catalog profile: names = %v, err = %v", got, err)
	}
}

// renamed wraps a machine under a name no profile has.
type renamed struct{ core.Machine }

func (renamed) Name() string { return "ad-hoc" }

func TestCoordinatorValidation(t *testing.T) {
	if _, err := (&Coordinator{Machines: []string{"no-such"}, Workers: 1}).Run(context.Background(), &results.DB{}); err == nil {
		t.Error("unknown machine must fail")
	}
	if _, err := (&Coordinator{Machines: testMachines}).Run(context.Background(), &results.DB{}); err == nil {
		t.Error("zero workers and no connections must fail")
	}
	if _, err := (&Coordinator{Machines: testMachines, Workers: -1}).Run(context.Background(), &results.DB{}); err == nil {
		t.Error("negative workers must fail")
	}
	skipped, err := (&Coordinator{Workers: 1}).Run(context.Background(), &results.DB{})
	if err != nil || len(skipped) != 0 {
		t.Errorf("empty machine list: %v, %v", skipped, err)
	}
}
