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
		"f9058109cc0bb0d1c47dffd00dd36305b4ad772621db2958e77f20c57ba9a770",
		"faff3056ab9ef9a5c53aa7dfd26eb7d516879e806351781df6c39ae3dbd6d983"},
	{"SGI Challenge",
		"cc69da274c79daed23eb3ae3c20f06287be78c43d39ec2b8d06766a6f9a8c0bd",
		"aa1714d0cf08ac3c1d70d2b09a74482a809f2eae76b8a89372341eaa0a3452e3"},
	{"HP K210",
		"6f0b641e942c1305f7e0921fed44983e4e5968510650789730f0911e4311e7ac",
		"36fd09eb9296168ccf55dc19e99babf157d7cac8e31f7d334b2465705bdd57f9"},
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
