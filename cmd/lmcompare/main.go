// Command lmcompare quantifies agreement between two results
// databases: per benchmark it reports the median got/ref ratio and the
// Spearman rank correlation of the machine ranking. With -ref paper it
// compares against the paper's published evaluation (the reproduction's
// headline check). It is a thin client of the public repro/compare
// package, with stores opened through lmbench.OpenStore; everything it
// prints is a few API calls.
//
// Databases can come from files, the paper's published values, or a
// results store (-store), where any run reference works: a run ID or
// unique prefix, a label, "latest", "latest~N".
//
//	lmcompare -ref paper results/simulated.db
//	lmcompare -ref run1.db run2.db
//	lmcompare -store store/ -ref latest~1 latest
//	lmcompare -store store/ -regress              # latest~1 vs latest
//	lmcompare -store store/ -regress -ref v1 -sigmas 4 latest
package main

import (
	"flag"
	"fmt"
	"os"

	lmbench "repro"
	"repro/compare"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lmcompare:", err)
		os.Exit(1)
	}
}

// load resolves one database reference: the reserved name "paper", an
// existing file, or — when a store is open — any store run reference.
func load(s *lmbench.Store, ref string) (*compare.DB, string, error) {
	if ref == "paper" {
		return compare.Paper(), "paper", nil
	}
	if _, err := os.Stat(ref); err == nil || s == nil {
		db, err := compare.Load(ref)
		return db, ref, err
	}
	m, db, err := s.DB(ref)
	if err != nil {
		return nil, "", err
	}
	name := m.Label
	if name == "" {
		name = m.RunID[:12]
	}
	return db, name, nil
}

func run() error {
	var (
		refFlag     = flag.String("ref", "paper", `reference database: "paper", a file, or a store run reference`)
		threshFlag  = flag.Float64("rank", 0.6, "rank-correlation threshold for the summary")
		storeFlag   = flag.String("store", "", "resolve run references against the results store at this directory")
		regressFlag = flag.Bool("regress", false, "report noise-aware regressions instead of agreement ratios")
		sigmasFlag  = flag.Float64("sigmas", 0, "regression significance: multiples of the entries' observed spread (default 3)")
		minRelFlag  = flag.Float64("min-rel", 0, "regression significance floor as a fraction (default 0.001)")
	)
	flag.Parse()
	if flag.NArg() > 1 {
		return fmt.Errorf("usage: lmcompare [flags] got  (see -help)")
	}

	var s *lmbench.Store
	if *storeFlag != "" {
		var err error
		if s, err = lmbench.OpenStore(*storeFlag); err != nil {
			return err
		}
	}

	// The candidate defaults to "latest" when a store is in play and no
	// argument was given — the regression-gate invocation. In -regress
	// mode the reference default becomes the previous run.
	gotRef := flag.Arg(0)
	refRef := *refFlag
	if gotRef == "" {
		if s == nil {
			return fmt.Errorf("usage: lmcompare [flags] got  (or -store with run references)")
		}
		gotRef = "latest"
	}
	if *regressFlag && refRef == "paper" && s != nil {
		refRef = "latest~1"
	}

	ref, refName, err := load(s, refRef)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	got, gotName, err := load(s, gotRef)
	if err != nil {
		return fmt.Errorf("candidate: %w", err)
	}

	if *regressFlag {
		rep := compare.Regressions(ref, got, compare.RegressOptions{
			Sigmas: *sigmasFlag, MinRel: *minRelFlag,
		})
		rep.BaseID, rep.HeadID = refName, gotName
		compare.RenderRegressions(os.Stdout, rep)
		if rep.Regressions > 0 {
			os.Exit(2) // gate-friendly: regressions are a distinct exit
		}
		return nil
	}

	comps := compare.Compare(ref, got)
	if len(comps) == 0 {
		return fmt.Errorf("no benchmarks in common")
	}
	compare.Render(os.Stdout, comps)
	mean, above, total := compare.Summary(comps, *threshFlag)
	fmt.Printf("\nshape agreement: mean rank %.3f; %d/%d benchmarks >= %.2f\n",
		mean, above, total, *threshFlag)
	return nil
}
