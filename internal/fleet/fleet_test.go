package fleet

import (
	"bytes"
	"context"
	"io"
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

func TestProtocolRoundTrip(t *testing.T) {
	opts := fastOpts()
	in := &wireMsg{
		Type: msgUnit, V: protoVersion, Seq: 7,
		Machine: "Linux/i686", Key: "mem_hier", IDs: []string{"figure1", "table6"},
		Opts: &opts, Extended: true,
		Timeout: time.Second, Retries: 2, RetryBackoff: 50 * time.Millisecond,
		MaxRSD: 0.1, QualityRetries: 3,
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
}

// TestWorkerServesUnits drives the worker loop directly over in-memory
// pipes: a well-formed unit produces entries, an unknown machine an
// error frame, and a version mismatch kills the session.
func TestWorkerServesUnits(t *testing.T) {
	toWorker, unitW := io.Pipe()
	resultR, fromWorker := io.Pipe()
	workErr := make(chan error, 1)
	go func() { workErr <- work(context.Background(), rpcx.NewSession(toWorker, fromWorker)) }()
	s := rpcx.NewSession(resultR, unitW)

	opts := fastOpts()
	if err := s.Send(&wireMsg{
		Type: msgUnit, V: protoVersion, Seq: 1,
		Machine: testMachines[0], Key: "tlb", IDs: []string{"table16"}, Opts: &opts,
	}); err != nil {
		t.Fatal(err)
	}
	var res *wireMsg
	for {
		m, err := recvMsg(s)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == msgResult {
			res = m
			break
		}
		if m.Type != msgEvent || m.Event == nil {
			t.Fatalf("unexpected frame %+v", m)
		}
	}
	if res.Seq != 1 || res.Err != "" || res.Record == nil || len(res.Record.Entries) == 0 {
		t.Fatalf("result = %+v", res)
	}

	if err := s.Send(&wireMsg{Type: msgUnit, V: protoVersion, Seq: 2, Machine: "no-such-machine", Opts: &opts}); err != nil {
		t.Fatal(err)
	}
	res2, err := recvMsg(s)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Err == "" || !strings.Contains(res2.Err, "no-such-machine") {
		t.Fatalf("want unknown-machine error, got %+v", res2)
	}

	if err := s.Send(&wireMsg{Type: msgUnit, V: protoVersion + 1, Seq: 3, Machine: testMachines[0], Opts: &opts}); err != nil {
		t.Fatal(err)
	}
	if err := <-workErr; err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version-mismatch session error, got %v", err)
	}
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
