package compare_test

import (
	"fmt"
	"os"

	"repro/compare"
)

// Comparing a database against the paper's published values is one
// Load away; a self-comparison agrees perfectly.
func ExampleCompare() {
	ref, err := compare.Load("paper")
	if err != nil {
		panic(err)
	}
	comps := compare.Compare(ref, ref)
	meanRank, above, total := compare.Summary(comps, 0.6)
	fmt.Printf("mean rank %.2f, %d/%d above threshold\n", meanRank, above, total)
	fmt.Printf("median ratio of first benchmark: %.2fx\n", comps[0].MedianRatio)
	// Output:
	// mean rank 1.00, 26/26 above threshold
	// median ratio of first benchmark: 1.00x
}

// A run compared with itself has no significant changes — the pass
// condition CI regression gates check for.
func ExampleRegressions() {
	db, err := compare.Load("paper")
	if err != nil {
		panic(err)
	}
	rep := compare.Regressions(db, db, compare.RegressOptions{})
	fmt.Println(rep.Empty())
	compare.RenderRegressions(os.Stdout, rep)
	// Output:
	// true
	// regressions: base -> head (367 pairs compared, bar max(0.001, 3*spread))
	// no significant changes
}
