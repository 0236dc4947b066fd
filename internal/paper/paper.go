// Package paper renders a results database in the form the paper
// presents its evaluation: Tables 2-17 sorted best-to-worst with the
// sort column marked, and Figures 1-2 as ASCII plots plus
// gnuplot-ready data.
package paper

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/report"
	"repro/internal/results"
)

// tableSpec declares how one paper table is assembled from the DB.
type tableSpec struct {
	id    string
	title string
	cols  []colSpec
	sort  int
}

type colSpec struct {
	header string
	bench  string
	better report.Better
}

var tableSpecs = []tableSpec{
	{
		id: "table2", title: "Table 2. Memory bandwidth (MB/s)",
		cols: []colSpec{
			{"bcopy unrolled", "bw_mem.bcopy_unrolled", report.HigherIsBetter},
			{"bcopy libc", "bw_mem.bcopy_libc", report.HigherIsBetter},
			{"read", "bw_mem.read", report.HigherIsBetter},
			{"write", "bw_mem.write", report.HigherIsBetter},
		},
	},
	{
		id: "table3", title: "Table 3. Pipe and local TCP bandwidth (MB/s)",
		cols: []colSpec{
			{"pipe", "bw_ipc.pipe", report.HigherIsBetter},
			{"TCP", "bw_ipc.tcp", report.HigherIsBetter},
			{"bcopy libc", "bw_mem.bcopy_libc", report.HigherIsBetter},
		},
	},
	{
		id: "table5", title: "Table 5. File vs. memory bandwidth (MB/s)",
		cols: []colSpec{
			{"file read", "bw_file.read", report.HigherIsBetter},
			{"file mmap", "bw_file.mmap", report.HigherIsBetter},
			{"bcopy libc", "bw_mem.bcopy_libc", report.HigherIsBetter},
			{"mem read", "bw_mem.read", report.HigherIsBetter},
		},
	},
	{
		id: "table6", title: "Table 6. Cache and memory latency (ns)",
		cols: []colSpec{
			{"L1 lat", "cache.l1_lat", report.LowerIsBetter},
			{"L1 size", "cache.l1_size", report.LowerIsBetter},
			{"L2 lat", "cache.l2_lat", report.LowerIsBetter},
			{"L2 size", "cache.l2_size", report.LowerIsBetter},
			{"mem lat", "cache.mem_lat", report.LowerIsBetter},
		},
		sort: 2, // the paper sorts Table 6 on level-2 cache latency
	},
	{
		id: "table7", title: "Table 7. Simple system call time (microseconds)",
		cols: []colSpec{{"system call", "lat_syscall", report.LowerIsBetter}},
	},
	{
		id: "table8", title: "Table 8. Signal times (microseconds)",
		cols: []colSpec{
			{"sigaction", "lat_sig.install", report.LowerIsBetter},
			{"sig handler", "lat_sig.catch", report.LowerIsBetter},
		},
		sort: 1, // sorted on handler cost
	},
	{
		id: "table9", title: "Table 9. Process creation time (milliseconds)",
		cols: []colSpec{
			{"fork & exit", "lat_proc.fork", report.LowerIsBetter},
			{"fork, exec & exit", "lat_proc.exec", report.LowerIsBetter},
			{"fork, exec sh -c & exit", "lat_proc.sh", report.LowerIsBetter},
		},
	},
	{
		id: "table10", title: "Table 10. Context switch time (microseconds)",
		cols: []colSpec{
			{"2proc/0KB", "lat_ctx.2p_0k", report.LowerIsBetter},
			{"2proc/32KB", "lat_ctx.2p_32k", report.LowerIsBetter},
			{"8proc/0KB", "lat_ctx.8p_0k", report.LowerIsBetter},
			{"8proc/32KB", "lat_ctx.8p_32k", report.LowerIsBetter},
		},
	},
	{
		id: "table11", title: "Table 11. Pipe latency (microseconds)",
		cols: []colSpec{{"pipe latency", "lat_pipe", report.LowerIsBetter}},
	},
	{
		id: "table12", title: "Table 12. TCP latency (microseconds)",
		cols: []colSpec{
			{"TCP", "lat_tcp", report.LowerIsBetter},
			{"RPC/TCP", "lat_rpc_tcp", report.LowerIsBetter},
		},
	},
	{
		id: "table13", title: "Table 13. UDP latency (microseconds)",
		cols: []colSpec{
			{"UDP", "lat_udp", report.LowerIsBetter},
			{"RPC/UDP", "lat_rpc_udp", report.LowerIsBetter},
		},
	},
	{
		id: "table15", title: "Table 15. TCP connect latency (microseconds)",
		cols: []colSpec{{"TCP connection", "lat_connect", report.LowerIsBetter}},
	},
	{
		id: "table16", title: "Table 16. File system latency (microseconds)",
		cols: []colSpec{
			{"create", "lat_fs.create", report.LowerIsBetter},
			{"delete", "lat_fs.delete", report.LowerIsBetter},
		},
	},
	{
		id: "table17", title: "Table 17. SCSI I/O overhead (microseconds)",
		cols: []colSpec{{"disk latency", "lat_disk.scsi_overhead", report.LowerIsBetter}},
	},
	// §7 future-work extensions.
	{
		id: "ext_stream", title: "Extension: McCalpin STREAM (MB/s)",
		cols: []colSpec{
			{"copy", "stream.copy", report.HigherIsBetter},
			{"scale", "stream.scale", report.HigherIsBetter},
			{"add", "stream.add", report.HigherIsBetter},
			{"triad", "stream.triad", report.HigherIsBetter},
		},
	},
	{
		id: "ext_memvar", title: "Extension: memory latency by workload (ns)",
		cols: []colSpec{
			{"clean read", "lat_mem_rd_clean.mem", report.LowerIsBetter},
			{"dirty read", "lat_mem_rd_dirty.mem", report.LowerIsBetter},
			{"write", "lat_mem_wr.mem", report.LowerIsBetter},
		},
	},
	{
		id: "ext_tlb", title: "Extension: TLB size and miss cost",
		cols: []colSpec{
			{"entries", "tlb.entries", report.HigherIsBetter},
			{"miss ns", "tlb.miss_ns", report.LowerIsBetter},
		},
		sort: 1,
	},
	{
		id: "ext_c2c", title: "Extension: MP cache-to-cache (ping-pong ns, MB/s)",
		cols: []colSpec{
			{"ping-pong", "lat_c2c", report.LowerIsBetter},
			{"bandwidth", "bw_c2c", report.HigherIsBetter},
		},
	},
}

// RenderTable writes one scalar table from the DB.
func RenderTable(w io.Writer, id string, db *results.DB) error {
	switch id {
	case "table4":
		return renderMediaTable(w, "Table 4. Remote TCP bandwidth (MB/s)",
			"bw_tcp_remote.", db, report.HigherIsBetter)
	case "table14":
		return renderRemoteLatencyTable(w, db)
	}
	for _, spec := range tableSpecs {
		if spec.id != id {
			continue
		}
		tb := &report.Table{Title: spec.title, SortCol: spec.sort}
		for _, c := range spec.cols {
			tb.Columns = append(tb.Columns, report.Column{Name: c.header, Better: c.better})
		}
		for _, machine := range db.Machines() {
			row := make([]float64, len(spec.cols))
			any := false
			for i, c := range spec.cols {
				if v, ok := db.Scalar(c.bench, machine); ok {
					row[i] = v
					any = true
				} else {
					row[i] = report.Missing
				}
			}
			if !any {
				continue
			}
			if err := tb.AddRow(machine, row...); err != nil {
				return err
			}
		}
		return tb.Render(w)
	}
	return fmt.Errorf("paper: unknown table %q", id)
}

// renderMediaTable renders per-(machine, medium) families such as
// Table 4, whose rows are "System Network Value".
func renderMediaTable(w io.Writer, title, prefix string, db *results.DB, better report.Better) error {
	tb := &report.Table{
		Title:   title,
		Columns: []report.Column{{Name: "bandwidth", Better: better}},
	}
	for _, machine := range db.Machines() {
		for _, bench := range db.Benchmarks() {
			if !strings.HasPrefix(bench, prefix) {
				continue
			}
			if v, ok := db.Scalar(bench, machine); ok {
				medium := strings.TrimPrefix(bench, prefix)
				if err := tb.AddRow(machine+" ("+medium+")", v); err != nil {
					return err
				}
			}
		}
	}
	return tb.Render(w)
}

// renderRemoteLatencyTable renders Table 14: TCP and UDP round trips
// per (machine, medium).
func renderRemoteLatencyTable(w io.Writer, db *results.DB) error {
	tb := &report.Table{
		Title: "Table 14. Remote latencies (microseconds)",
		Columns: []report.Column{
			{Name: "TCP", Better: report.LowerIsBetter},
			{Name: "UDP", Better: report.LowerIsBetter},
		},
	}
	const prefix = "lat_net_remote."
	type key struct{ machine, medium string }
	rows := map[key][2]float64{}
	for _, machine := range db.Machines() {
		for _, bench := range db.Benchmarks() {
			if !strings.HasPrefix(bench, prefix) {
				continue
			}
			v, ok := db.Scalar(bench, machine)
			if !ok {
				continue
			}
			rest := strings.TrimPrefix(bench, prefix)
			i := strings.LastIndex(rest, ".")
			if i < 0 {
				continue
			}
			k := key{machine, rest[:i]}
			r := rows[k]
			if rest[i+1:] == "tcp" {
				r[0] = v
			} else {
				r[1] = v
			}
			rows[k] = r
		}
	}
	keys := make([]key, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].machine != keys[j].machine {
			return keys[i].machine < keys[j].machine
		}
		return keys[i].medium < keys[j].medium
	})
	for _, k := range keys {
		r := rows[k]
		if err := tb.AddRow(k.machine+" ("+k.medium+")", r[0], r[1]); err != nil {
			return err
		}
	}
	return tb.Render(w)
}

// Figure1Plot builds the memory-latency plot for one machine from its
// lat_mem_rd series, one dataset per stride.
func Figure1Plot(db *results.DB, machine string) (*report.Plot, error) {
	return seriesPlot(db, "lat_mem_rd", machine, report.Plot{
		Title:  fmt.Sprintf("Figure 1. %s memory latencies", machine),
		XLabel: "log2(Array size)",
		YLabel: "latency (ns)",
		Log2X:  true,
	}, func(stride float64) string { return fmt.Sprintf("stride=%g", stride) })
}

// Figure2Plot builds the context-switch plot for one machine from its
// lat_ctx series, one dataset per footprint size.
func Figure2Plot(db *results.DB, machine string) (*report.Plot, error) {
	return seriesPlot(db, "lat_ctx", machine, report.Plot{
		Title:  fmt.Sprintf("Figure 2. Context switch times, %s", machine),
		XLabel: "processes",
		YLabel: "context switch (us)",
	}, func(size float64) string { return fmt.Sprintf("size=%gKB", size/1024) })
}

// seriesPlot fills plot from machine's bench series: one dataset per
// X2 value in ascending order, labelled by label, its points sorted by
// X.
func seriesPlot(db *results.DB, bench, machine string, plot report.Plot, label func(x2 float64) string) (*report.Plot, error) {
	e, ok := db.Get(bench, machine)
	if !ok || !e.IsSeries() {
		return nil, fmt.Errorf("paper: no %s series for %q", bench, machine)
	}
	byX2 := map[float64][]results.Point{}
	for _, p := range e.Series {
		byX2[p.X2] = append(byX2[p.X2], p)
	}
	keys := make([]float64, 0, len(byX2))
	for k := range byX2 {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	for _, k := range keys {
		pts := byX2[k]
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		plot.Sets = append(plot.Sets, report.DataSet{Label: label(k), Points: pts})
	}
	return &plot, nil
}

// TableIDs lists every renderable table in paper order, extensions
// last.
func TableIDs() []string {
	out := []string{"table2", "table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10", "table11", "table12", "table13",
		"table14", "table15", "table16", "table17",
		"ext_stream", "ext_memvar", "ext_tlb", "ext_c2c"}
	return out
}

// hasData reports whether any of the table's benchmark keys has an
// entry in the DB.
func hasData(id string, db *results.DB) bool {
	var prefixes []string
	switch id {
	case "table4":
		prefixes = []string{"bw_tcp_remote."}
	case "table14":
		prefixes = []string{"lat_net_remote."}
	default:
		for _, spec := range tableSpecs {
			if spec.id == id {
				for _, c := range spec.cols {
					prefixes = append(prefixes, c.bench)
				}
			}
		}
	}
	for _, b := range db.Benchmarks() {
		for _, p := range prefixes {
			if strings.HasPrefix(b, p) {
				return true
			}
		}
	}
	return false
}

// RenderAll writes every table with data and, for each machine with
// series data, both figures.
func RenderAll(w io.Writer, db *results.DB) error {
	for _, id := range TableIDs() {
		if !hasData(id, db) {
			continue
		}
		if err := RenderTable(w, id, db); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, machine := range db.Machines() {
		if plot, err := Figure1Plot(db, machine); err == nil {
			if err := plot.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		if plot, err := Figure2Plot(db, machine); err == nil {
			if err := plot.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
