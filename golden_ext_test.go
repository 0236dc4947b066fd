package lmbench_test

import (
	"context"
	"testing"

	lmbench "repro"
	"repro/internal/core"
)

// The golden recipe runs no §7 extension, so the databases the
// extension drivers write (ExtStream, ExtMemVariants, ExtTLB,
// ExtCacheToCache, ExtMemSize) are pinned here instead: one uniprocessor
// and two MP profiles (the MP ones run ext_c2c), each run once
// exhaustively over every extension group and once adaptively over the
// planned sweeps. `make golden-serial` runs this test at GOMAXPROCS=1
// too, so the sweep kernel's serial path is pinned as well as its
// parallel one.
var extGolden = []struct {
	machine, adaptive, exhaustive string
}{
	{"Linux/i686",
		"fdbcf530072c166d4fe40cd2a42d73f398b23adf238e14772de6e7d2b4e3ad26",
		"3bf8dd067cf171c0730d76c8e4790bf3c616cecb0e5453cebfe10b2cd78ffc67"},
	{"SGI Challenge",
		"cc69da274c79daed23eb3ae3c20f06287be78c43d39ec2b8d06766a6f9a8c0bd",
		"aa1714d0cf08ac3c1d70d2b09a74482a809f2eae76b8a89372341eaa0a3452e3"},
	{"HP K210",
		"74d30baac31ae538903caa5d525340da26df439fff0549b8b0945e4336c4ed75",
		"1fe83f9e6825d8b3006b02caa06b2b89a88789e924883f7f9dddfae09234a8ea"},
}

func TestExtensionDatabasesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("extension regeneration is slow; skipped with -short")
	}
	var extIDs []string
	for _, e := range lmbench.Extensions() {
		extIDs = append(extIDs, e.ID)
	}
	for _, tc := range extGolden {
		for _, run := range []struct {
			mode lmbench.SweepMode
			only []string
			want string
		}{
			{lmbench.SweepExhaustive, extIDs, tc.exhaustive},
			{lmbench.SweepAdaptive, []string{"ext_memvar", "figure1", "ext_tlb"}, tc.adaptive},
		} {
			m, err := lmbench.NewSimMachine(tc.machine)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := lmbench.New(lmbench.WithMachine(m), lmbench.WithOptions(core.FastOptions()),
				lmbench.WithExtended(), lmbench.WithOnly(run.only...), lmbench.WithSweepMode(run.mode),
			).Run(context.Background())
			if err != nil {
				t.Fatalf("%s %s: %v", tc.machine, run.mode, err)
			}
			if got := goldenHash(t, rep.DB); got != run.want {
				t.Errorf("%s %s: database hash %s, want %s", tc.machine, run.mode, got, run.want)
			}
		}
	}
}
