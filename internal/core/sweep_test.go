package core_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/results"
)

// encodeEntries renders entries the way the results database does, so
// equality below is the same byte-for-byte guarantee the saved .db
// files carry.
func encodeEntries(t *testing.T, entries []results.Entry) []byte {
	t.Helper()
	db := &results.DB{}
	for _, e := range entries {
		if err := db.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedSweepMatchesSerial is the sharding correctness contract:
// the Figure-1 sweep and the §7 memory-variant sweep must encode
// byte-identically at every GOMAXPROCS, the pool's width on a
// simulated machine. Run with -race (make race covers this package) it
// also proves the workers' writes are properly disjoint.
func TestShardedSweepMatchesSerial(t *testing.T) {
	sweeps := []struct {
		name string
		run  func(context.Context, core.Machine, core.Options) ([]results.Entry, error)
	}{
		{"figure1", core.MemLatencySweep},
		{"memvar", core.ExtMemVariants},
	}
	for _, sweep := range sweeps {
		t.Run(sweep.name, func(t *testing.T) {
			opts := smallOpts()
			setProcs(t, 1)
			serial, err := sweep.run(context.Background(), simMachine(t, "Linux/i686"), opts)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeEntries(t, serial)
			for _, procs := range []int{2, 4, 16} {
				setProcs(t, procs)
				got, err := sweep.run(context.Background(), simMachine(t, "Linux/i686"), opts)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if enc := encodeEntries(t, got); !bytes.Equal(enc, want) {
					t.Errorf("GOMAXPROCS=%d: encoded sweep differs from serial run", procs)
				}
			}
		})
	}
}

// uncloneable hides the Cloner capability of the wrapped machine; the
// sweeps must fall back to a serial run rather than fail.
type uncloneable struct{ core.Machine }

func TestSweepWithoutClonerRunsSerially(t *testing.T) {
	opts := smallOpts()
	serial, err := core.MemLatencySweep(context.Background(), simMachine(t, "Linux/i686"), opts)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 8)
	got, err := core.MemLatencySweep(context.Background(), uncloneable{simMachine(t, "Linux/i686")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeEntries(t, got), encodeEntries(t, serial)) {
		t.Error("non-Cloner run at GOMAXPROCS=8 differs from serial run")
	}
}

func TestShardedSweepHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	setProcs(t, 4)
	if _, err := core.MemLatencySweep(ctx, simMachine(t, "Linux/i686"), smallOpts()); err == nil {
		t.Fatal("cancelled sharded sweep returned nil error")
	}
}

func TestSimMachineClone(t *testing.T) {
	m := simMachine(t, "Linux/i686")
	cl, ok := m.(core.Cloner)
	if !ok {
		t.Fatal("simulated machine does not implement core.Cloner")
	}
	c, err := cl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if c == m {
		t.Fatal("Clone returned the same machine")
	}
	if c.Name() != m.Name() {
		t.Fatalf("clone name %q != %q", c.Name(), m.Name())
	}
	if _, ok := c.(*machines.Machine); !ok {
		t.Fatalf("clone has type %T, want *machines.Machine", c)
	}
}
