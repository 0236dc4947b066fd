package faults

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
)

func sim(t *testing.T, name string) core.Machine {
	t.Helper()
	p, ok := machines.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	m, err := machines.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// parseCase is one row of a plan-parser table; a nil want means the
// parser must refuse the input.
type parseCase struct {
	in   string
	want any
}

// checkParse runs one injection point's parser over its table and
// checks that it refuses the other point's keys as unknown.
func checkParse(t *testing.T, parse func(string) (any, error), cases []parseCase, foreign []string) {
	t.Helper()
	for _, c := range cases {
		got, err := parse(c.in)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%T plan %q accepted", got, c.in)
		case c.want != nil && (err != nil || !reflect.DeepEqual(got, c.want)):
			t.Errorf("%T plan %q: parsed %+v, %v; want %+v", got, c.in, got, err, c.want)
		}
	}
	for _, k := range foreign {
		if got, err := parse(k); err == nil || !strings.Contains(err.Error(), "unknown plan key") {
			t.Errorf("%T plan %q: err = %v, want an unknown plan key", got, k, err)
		}
	}
}

// TestParsePlan covers every key of the machine plan, its refusals,
// and its refusal of the wire plan's keys.
func TestParsePlan(t *testing.T) {
	checkParse(t, func(s string) (any, error) { return ParsePlan(s) }, []parseCase{
		{"seed=42,err=0.2,stall=0.05,stallfor=2s,spike=0.1,spikefor=10ms,failn=2,budget=50,ops=net;os.null_write,unsupported=disk", Plan{
			Seed: 42, ErrorRate: 0.2, StallRate: 0.05, SpikeRate: 0.1,
			StallFor: 2 * time.Second, SpikeFor: 10 * time.Millisecond,
			FailFirstN: 2, Budget: 50, Ops: []string{"net", "os.null_write"}, Unsupported: []string{"disk"},
		}},
		// An empty plan is valid (no injection).
		{"", Plan{}},
		{"err=1.5", nil},           // rate out of range
		{"spike=NaN", nil},         // not a rate
		{"err=0.6,stall=0.6", nil}, // rates sum past 1
		{"bogus=1", nil},           // unknown key
		{"err", nil},               // not key=value
		{"failn=-1", nil},          // negative
		{"stallfor=notaduration", nil},
	}, []string{"delay=0", "delayfor=1ms", "drop=0", "trunc=0", "dup=0", "flip=0", "reset=0"})

	// Zero durations take their defaults.
	if m := (Plan{}).normalize(); m.StallFor != time.Second || m.SpikeFor != 5*time.Millisecond {
		t.Errorf("machine defaults: stall %v, spike %v; want 1s, 5ms", m.StallFor, m.SpikeFor)
	}
}

// TestDeterministicInjection is the foundation of the chaos suite:
// identical (seed, plan, call sequence) triples inject identically.
func TestDeterministicInjection(t *testing.T) {
	run := func() []string {
		f := Wrap(sim(t, "Linux/i686"), Plan{Seed: 7, ErrorRate: 0.4})
		var outcomes []string
		for i := 0; i < 200; i++ {
			if err := f.OS().NullWrite(); err != nil {
				outcomes = append(outcomes, "err")
			} else {
				outcomes = append(outcomes, "ok")
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged: %s vs %s", i, a[i], b[i])
		}
	}
	// And the rate is in the right ballpark for a seeded stream.
	errs := 0
	for _, o := range a {
		if o == "err" {
			errs++
		}
	}
	if errs < 50 || errs > 110 {
		t.Errorf("injected %d/200 errors at rate 0.4", errs)
	}
}

// TestMachineDrawContract pins the machine point's determinism: one
// rng drawn in primitive-call order, once per targeted call, and never
// for a filtered op, a fail-first-N call or a spent budget.
func TestMachineDrawContract(t *testing.T) {
	plan := Plan{Seed: 3, ErrorRate: 0.4, SpikeRate: 0.2, SpikeFor: time.Microsecond, FailFirstN: 2, Budget: 10, Ops: []string{"os"}}
	f := Wrap(sim(t, "Linux/i686"), plan)
	ref := rand.New(rand.NewSource(plan.Seed))
	injected := 0
	for call := 1; call <= 40; call++ {
		if err := f.Net().PipeRoundTrip(); err != nil {
			t.Fatalf("filtered op failed: %v", err)
		}
		want := "pass"
		switch {
		case injected == plan.Budget:
		case call <= plan.FailFirstN:
			want = "error"
		default:
			switch x := ref.Float64(); {
			case x < plan.ErrorRate:
				want = "error"
			case x < plan.ErrorRate+plan.SpikeRate:
				want = "spike"
			}
		}
		if want != "pass" {
			injected++
		}
		spikes := f.Stats().Spikes
		got := "pass"
		switch err := f.OS().NullWrite(); {
		case errors.Is(err, ErrInjected):
			got = "error"
		case err != nil:
			t.Fatal(err)
		case f.Stats().Spikes > spikes:
			got = "spike"
		}
		if got != want {
			t.Fatalf("call %d: %s, want %s", call, got, want)
		}
	}
	if injected != plan.Budget {
		t.Fatalf("%d faults injected; the budget of %d was never spent", injected, plan.Budget)
	}
	if f.rng.Float64() != ref.Float64() {
		t.Fatal("the wrapper drew other than once per targeted call within the budget")
	}
}

func TestFailFirstNThenSucceed(t *testing.T) {
	f := Wrap(sim(t, "Linux/i686"), Plan{FailFirstN: 3})
	for i := 1; i <= 3; i++ {
		err := f.OS().NullWrite()
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := f.OS().NullWrite(); err != nil {
		t.Fatalf("call 4 should succeed: %v", err)
	}
	// Counters are per primitive: a different op starts its own run.
	if err := f.Net().PipeRoundTrip(); !errors.Is(err, ErrInjected) {
		t.Errorf("first pipe call: err = %v, want ErrInjected", err)
	}
	st := f.Stats()
	if st.Errors != 4 {
		t.Errorf("Errors = %d, want 4", st.Errors)
	}
	if op := st.PerOp["os.null_write"]; op.Calls != 4 || op.Errors != 3 {
		t.Errorf("os.null_write stats = %+v", op)
	}
}

func TestOpsFilterAndUnsupported(t *testing.T) {
	f := Wrap(sim(t, "Linux/i686"), Plan{
		ErrorRate:   1,
		Ops:         []string{"net"},
		Unsupported: []string{"disk"},
	})
	// Untargeted primitive: no injection at all.
	if err := f.OS().NullWrite(); err != nil {
		t.Errorf("untargeted op failed: %v", err)
	}
	// Targeted primitive: always fails at rate 1.
	if err := f.Net().TCPRoundTrip(); !errors.Is(err, ErrInjected) {
		t.Errorf("targeted op: err = %v, want ErrInjected", err)
	}
	// Unsupported primitive reports core.ErrUnsupported.
	if err := f.Disk().SeqRead512(); !core.IsUnsupported(err) {
		t.Errorf("disk op: err = %v, want ErrUnsupported", err)
	}
	st := f.Stats()
	if st.Unsupported != 1 || st.Errors != 1 {
		t.Errorf("stats = %+v", st)
	}
	if op, ok := st.PerOp["os.null_write"]; ok {
		t.Errorf("untargeted op was counted: %+v", op)
	}
}

func TestBudgetCapsInjection(t *testing.T) {
	f := Wrap(sim(t, "Linux/i686"), Plan{ErrorRate: 1, Budget: 5})
	errs := 0
	for i := 0; i < 50; i++ {
		if err := f.OS().NullWrite(); err != nil {
			errs++
		}
	}
	if errs != 5 {
		t.Errorf("injected %d errors with budget 5", errs)
	}
}

// TestStallHonorsBoundContext: a stall wakes when the bound
// per-experiment context is cancelled — the mechanism that lets a
// stall trip the suite's timeout instead of wedging the run.
func TestStallHonorsBoundContext(t *testing.T) {
	f := Wrap(sim(t, "Linux/i686"), Plan{StallRate: 1, StallFor: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	f.BindContext(ctx)
	start := time.Now()
	err := f.OS().NullWrite()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("stalled call returned %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("stall took %v to notice cancellation", d)
	}
	if f.Stats().Stalls != 1 {
		t.Errorf("Stalls = %d, want 1", f.Stats().Stalls)
	}
}

// TestWrapperTransparent: name, clock and pure accessors pass through.
func TestWrapperTransparent(t *testing.T) {
	m := sim(t, "Linux/i686")
	f := Wrap(m, Plan{})
	if f.Name() != m.Name() {
		t.Errorf("Name = %q, want %q", f.Name(), m.Name())
	}
	if f.Clock() != m.Clock() {
		t.Error("Clock not passed through")
	}
	if f.Net().Media() == nil {
		t.Error("sim machine should report remote media through the wrapper")
	}
	// With an empty plan nothing is injected.
	for i := 0; i < 20; i++ {
		if err := f.OS().NullWrite(); err != nil {
			t.Fatalf("empty plan injected: %v", err)
		}
	}
	if st := f.Stats(); st.Faults() != 0 {
		t.Errorf("empty plan recorded faults: %+v", st)
	}
}
