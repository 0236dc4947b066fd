// Package compare is the comparison and regression API over lmbench
// results databases.
//
// It answers the two questions the paper's results database existed
// for: "how does this run compare to that one?" (sorted agreement
// tables: median got/ref ratio per benchmark plus Spearman rank
// correlation across the common machines) and "did anything get
// worse?" (automatic regression reports judged against each
// measurement's own observed noise, not a fixed percentage).
//
// Databases come from three places:
//
//   - a results file written by the harness (Load with a path),
//   - the paper's published values (Load("paper"), or Paper), and
//   - a run in a results store (lmbench.OpenStore, then Store.DB with
//     any run reference: an ID or unique prefix, a label, "latest",
//     "latest~N").
//
// The lmcompare and lmreport commands and the store's HTTP API are
// clients of this package; anything they print can be reproduced with
// a few calls:
//
//	ref, _ := compare.Load("paper")
//	got, _ := compare.Load("results/simulated.db")
//	comps := compare.Compare(ref, got)
//	compare.Render(os.Stdout, comps)
//
//	rep := compare.Regressions(base, head, compare.RegressOptions{})
//	compare.RenderRegressions(os.Stdout, rep)
package compare

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/paperdata"
	"repro/internal/results"
	"repro/internal/stats"
)

// DB is the mergeable, serializable results database (an alias of the
// root package's DB; values flow freely between the two APIs).
type DB = results.DB

// Benchmark is the agreement summary for one benchmark shared by two
// databases.
type Benchmark struct {
	// Benchmark is the result-database key.
	Benchmark string
	// Unit echoes the reference unit.
	Unit string
	// Machines is the number of machines present in both databases.
	Machines int
	// RankCorr is Spearman's rank correlation across the common
	// machines; NaN-free: HasRank is false when it cannot be computed
	// (fewer than three machines, or a constant column).
	RankCorr float64
	HasRank  bool
	// MedianRatio is the median of got/ref over common machines.
	MedianRatio float64
	// WorstRatio is the common machine furthest from ratio 1.
	WorstRatio   float64
	WorstMachine string
}

// Compare evaluates got against ref for every scalar benchmark they
// share, sorted by benchmark name.
func Compare(ref, got *DB) []Benchmark {
	var out []Benchmark
	for _, bench := range ref.Benchmarks() {
		var refs, gots, ratios []float64
		var machines []string
		unit := ""
		for _, machine := range ref.Machines() {
			rv, ok := ref.Scalar(bench, machine)
			if !ok || rv == 0 {
				continue
			}
			gv, ok := got.Scalar(bench, machine)
			if !ok {
				continue
			}
			if e, ok2 := ref.Get(bench, machine); ok2 {
				unit = e.Unit
			}
			refs = append(refs, rv)
			gots = append(gots, gv)
			ratios = append(ratios, gv/rv)
			machines = append(machines, machine)
		}
		if len(refs) == 0 {
			continue
		}
		b := Benchmark{Benchmark: bench, Unit: unit, Machines: len(refs)}
		if r, err := stats.SpearmanRank(refs, gots); err == nil {
			b.RankCorr, b.HasRank = r, true
		}
		b.MedianRatio, _ = stats.Median(ratios)
		worstDist := -1.0
		for i, r := range ratios {
			d := r
			if d < 1 {
				if d <= 0 {
					d = 1e9
				} else {
					d = 1 / d
				}
			}
			if d > worstDist {
				worstDist = d
				b.WorstRatio = r
				b.WorstMachine = machines[i]
			}
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}

// Render prints a comparison as an aligned table.
func Render(w io.Writer, comps []Benchmark) {
	fmt.Fprintf(w, "%-26s %5s %6s %8s  %s\n", "benchmark", "n", "rank", "med x", "worst (machine)")
	fmt.Fprintln(w, "--------------------------------------------------------------------------")
	for _, c := range comps {
		rank := "   -"
		if c.HasRank {
			rank = fmt.Sprintf("%+.2f", c.RankCorr)
		}
		fmt.Fprintf(w, "%-26s %5d %6s %8.2f  %.2fx (%s)\n",
			c.Benchmark, c.Machines, rank, c.MedianRatio, c.WorstRatio, c.WorstMachine)
	}
}

// Summary aggregates shape agreement over a comparison: the mean rank
// correlation over benchmarks where it is defined, and how many meet
// the threshold.
func Summary(comps []Benchmark, rankThreshold float64) (meanRank float64, above, total int) {
	var sum float64
	for _, c := range comps {
		if !c.HasRank {
			continue
		}
		sum += c.RankCorr
		total++
		if c.RankCorr >= rankThreshold {
			above++
		}
	}
	if total > 0 {
		meanRank = sum / float64(total)
	}
	return meanRank, above, total
}

// Paper returns the paper's published results (Tables 2-17 and the
// Figure-1 memory curves) as a database.
func Paper() *DB { return paperdata.DB() }

// Load reads a results database from a file, or returns the paper's
// published values for the reserved name "paper".
func Load(path string) (*DB, error) {
	if path == "paper" {
		return Paper(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return results.Decode(f)
}
