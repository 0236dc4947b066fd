package lmbench_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	lmbench "repro"
)

// BenchmarkEvaluationUnitCache measures one evaluation pass (five
// testbed machines, the memory/syscall/process/context-switch tables)
// through the unit cache: "cold" wipes the cache before every
// iteration, "warm" times passes over a cache seeded beforehand, which
// must execute nothing. The ratio of the two is the headline number
// for incremental evaluation.
func BenchmarkEvaluationUnitCache(b *testing.B) {
	names := []string{
		"Linux/i686", "HP K210", "Sun Ultra1", "SGI Challenge", "Sun SC1000",
	}
	tables := []string{"table2", "table5", "table7", "table9", "table10"}

	run := func(b *testing.B, dir string) *lmbench.Report {
		opts := []lmbench.Option{
			lmbench.WithOptions(goldenOpts()),
			lmbench.WithUnitCache(dir),
			lmbench.WithOnly(tables...),
		}
		for _, n := range names {
			m, err := lmbench.NewSimMachine(n)
			if err != nil {
				b.Fatal(err)
			}
			opts = append(opts, lmbench.WithMachine(m))
		}
		rep, err := lmbench.New(opts...).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}

	b.Run("cold", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := os.RemoveAll(filepath.Join(dir, "units")); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			run(b, dir)
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		run(b, dir) // seed the cache before timing
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := run(b, dir); rep.Cache.Misses != 0 {
				b.Fatalf("warm iteration executed %d units", rep.Cache.Misses)
			}
		}
	})
}
