// Command lmbench runs the benchmark suite on the host or on one of
// the built-in simulated 1995 machines, prints the paper-style tables,
// and optionally saves the results database.
//
// Usage:
//
//	lmbench -list                     # available machines and experiments
//	lmbench -list-machines            # the full machine catalog with provenance
//	lmbench -machine host             # run on this machine
//	lmbench -machine 'Linux/i686'     # run on a simulated machine
//	lmbench -machine all-sim          # run on every compiled-in simulated machine
//	lmbench -profile m.json           # add profile file (or dir) to the catalog
//	lmbench -dump-profile 'Linux/i586'
//	                                 # print a profile's canonical JSON
//	lmbench -calibrate -machine 'Linux/i686' -target paper -emit fitted.json
//	                                 # fit the profile to target measurements
//	                                 # (-target paper | run:<ref> | results-db file)
//	lmbench -only table2,table7      # restrict the experiments
//	lmbench -trace run.jsonl         # structured JSON-lines event trace
//	lmbench -spans run.spans.jsonl   # span trace (flamegraph-convertible)
//	lmbench -serve 127.0.0.1:9090    # live /metrics, /progress, /healthz
//	lmbench -out results.db          # save the database
//	lmbench -merge old.db ...        # preload databases before running
//	lmbench -journal run.jnl         # crash-safe journal of completed work
//	lmbench -resume run.jnl          # replay a journal, run the remainder
//	lmbench -chaos 'err=0.3,seed=1'  # inject faults (testing the harness)
//	lmbench -sweep adaptive          # variance-aware sweep planning: measure
//	                                 # transitions, interpolate plateaus
//	lmbench -unit-cache cache/       # reuse cached unit results (warm runs
//	                                 # skip execution, byte-identical output)
//	lmbench -unit-cache-readonly     # serve cache hits, never write
//	lmbench -unit-cache-max-bytes N  # LRU-evict the cache down to N bytes
//	lmbench -max-rsd 0.05            # re-measure experiments noisier than 5%
//	lmbench -fleet-workers 4         # run across 4 worker processes
//	lmbench -fleet-listen :7777      # serve as a remote worker daemon
//	lmbench -fleet-connect host:7777 # add a remote worker to the pool
//	lmbench -store store/            # persist the run in a results store
//	lmbench -publish host:7878       # stream the run to a store daemon
//	lmbench -run-label nightly       # label the stored run
//	lmbench -store-listen :7878 -store-dir store/ -store-http :8080
//	                                 # run as the results-store daemon
//	lmbench -store-scrub -store-dir store/
//	                                 # verify the store: re-hash objects,
//	                                 # quarantine corruption, sweep partials
//	lmbench -chaos-net 'seed=1,drop=0.1' -chaos-listen :7879 -chaos-target host:7878
//	                                 # run a deterministic lossy proxy
//
// Benchmark and -calibrate runs are composed with lmbench.New: this
// command translates flags into builder options and prints the
// report, so every composition rule (and its error) lives in the
// library. The daemon modes (-fleet-listen, -store-listen) drain
// gracefully on SIGINT/SIGTERM: the listener closes immediately,
// in-flight work finishes, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"

	lmbench "repro"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/paper"
	"repro/internal/results"
)

func main() {
	lmbench.MaybeChild()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lmbench:", strings.TrimPrefix(err.Error(), "lmbench: "))
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machineFlag = fs.String("machine", "host", "target: host, all-sim, or a simulated machine name")
		onlyFlag    = fs.String("only", "", "comma-separated experiment ids (default all)")
		outFlag     = fs.String("out", "", "write the results database to this file")
		listFlag    = fs.Bool("list", false, "list machines and experiments, then exit")
		fastFlag    = fs.Bool("fast", false, "shrink workloads for a quick pass")
		quietFlag   = fs.Bool("quiet", false, "suppress progress output")
		extFlag     = fs.Bool("extensions", false, "include the paper's section-7 future-work experiments")
		summaryFlag = fs.Bool("summary", false, "print per-machine summary blocks instead of the paper tables")
		traceFlag   = fs.String("trace", "", "write a JSON-lines event trace to this file")
		spansFlag   = fs.String("spans", "", "write a JSON-lines span trace (flamegraph-convertible) to this file")
		serveFlag   = fs.String("serve", "", "serve /metrics, /progress and /healthz on this address for the run's duration")
		timeoutFlag = fs.Duration("timeout", 0, "per-experiment attempt deadline (0 = none)")
		retryFlag   = fs.Int("retries", 0, "extra attempts for a failing experiment")
		journalFlag = fs.String("journal", "", "append completed experiments to this crash-safe journal")
		resumeFlag  = fs.String("resume", "", "replay completed work from this journal, run the rest, keep journaling")
		chaosFlag   = fs.String("chaos", "", "fault-injection plan, e.g. 'seed=1,err=0.3,stall=0.05' (see internal/faults)")
		rsdFlag     = fs.Float64("max-rsd", 0, "re-measure experiments whose relative sample spread exceeds this (0 = off)")
		qretryFlag  = fs.Int("quality-retries", 0, "re-measurements for a noisy experiment (default 2 when -max-rsd is set)")
		sweepFlag   = fs.String("sweep", "exhaustive", "sweep coverage: exhaustive (every grid point, byte-stable) or adaptive (measure transitions, interpolate plateaus)")
		cpuProfile  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile  = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
		fleetFlag   = fs.Int("fleet-workers", 0, "run across this many worker processes (simulated machines only; results are byte-identical)")
		listenFlag  = fs.String("fleet-listen", "", "serve as a remote fleet worker daemon on this address")

		storeFlag       = fs.String("store", "", "persist the finished run in the results store at this directory")
		publishFlag     = fs.String("publish", "", "stream the finished run to a results-store daemon at this address")
		runLabelFlag    = fs.String("run-label", "", "label the stored run (with -store or -publish)")
		storeListenFlag = fs.String("store-listen", "", "run as a results-store daemon: accept published runs on this address")
		storeDirFlag    = fs.String("store-dir", "lmbench-store", "store directory for -store-listen and -store-scrub")
		storeHTTPFlag   = fs.String("store-http", "", "with -store-listen, also serve the store query API on this address")
		storeScrubFlag  = fs.Bool("store-scrub", false, "verify the store at -store-dir (re-hash objects, quarantine corruption, sweep partial writes), report, exit")
		pubRetriesFlag  = fs.Int("publish-retries", 0, "retries for a failed -publish, with doubling backoff (0 = default of 4, negative disables)")

		cacheFlag    = fs.String("unit-cache", "", "reuse completed work units from this cache directory; misses are stored for the next run")
		cacheROFlag  = fs.Bool("unit-cache-readonly", false, "with -unit-cache, serve hits but never write to the cache")
		cacheMaxFlag = fs.Int64("unit-cache-max-bytes", 0, "with -unit-cache, evict least-recently-used fragments beyond this size (0 = unlimited)")

		chaosNetFlag    = fs.String("chaos-net", "", "run as a deterministic lossy proxy with this fault plan, e.g. 'seed=1,drop=0.1,trunc=0.05' (see internal/faults)")
		chaosListenFlag = fs.String("chaos-listen", "127.0.0.1:0", "listen address for -chaos-net")
		chaosTargetFlag = fs.String("chaos-target", "", "forward address for -chaos-net")

		listMachFlag  = fs.Bool("list-machines", false, "list the machine catalog (name, CPU, OS, geometry, provenance), then exit")
		dumpProfFlag  = fs.String("dump-profile", "", "print a catalog profile's canonical JSON to stdout, then exit")
		calibrateFlag = fs.Bool("calibrate", false, "fit -machine's profile to -target measurements instead of benchmarking")
		targetFlag    = fs.String("target", "", "calibration target: 'paper', 'run:<ref>' (with -store), or a results-db file")
		emitFlag      = fs.String("emit", "", "with -calibrate, write the fitted profile to this file (default stdout)")
	)
	var merges, fleetConnect, profilePaths multiFlag
	fs.Var(&merges, "merge", "preload a results database (repeatable)")
	fs.Var(&fleetConnect, "fleet-connect", "add a remote worker daemon to the fleet pool (repeatable)")
	fs.Var(&profilePaths, "profile", "load machine profiles from this JSON file or directory into the catalog (repeatable; later loads shadow earlier names)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	// The catalog resolves -machine, -dump-profile and the store
	// daemon's /api/machines; the run's own catalog is rebuilt from the
	// same -profile paths by the builder.
	catalog := lmbench.DefaultCatalog()
	for _, path := range profilePaths {
		if err := catalog.LoadPath(path); err != nil {
			return fmt.Errorf("-profile: %w", err)
		}
	}

	// SIGINT/SIGTERM cancel a run and drain a daemon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case *listenFlag != "":
		return serveFleet(ctx, *listenFlag, *quietFlag, stderr)
	case *storeScrubFlag:
		return scrubStore(*storeDirFlag, stdout)
	case *storeListenFlag != "":
		return serveStore(ctx, *storeListenFlag, *storeDirFlag, *storeHTTPFlag, catalog, *quietFlag, stderr)
	case *chaosNetFlag != "":
		return serveChaosProxy(ctx, *chaosNetFlag, *chaosListenFlag, *chaosTargetFlag, *quietFlag, stdout, stderr)
	case *listMachFlag:
		return lmbench.RenderMachineList(stdout, catalog)
	case *dumpProfFlag != "":
		p, ok := catalog.ByName(*dumpProfFlag)
		if !ok {
			return fmt.Errorf("unknown machine %q (try -list-machines)", *dumpProfFlag)
		}
		b, err := lmbench.EncodeProfile(p)
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	case *listFlag:
		return list(stdout, catalog)
	case *journalFlag != "" && *resumeFlag != "":
		return errors.New("-journal and -resume are mutually exclusive (resume keeps journaling to the same file)")
	}

	// Everything below is one benchmark or calibration run: flags
	// become builder options, lmbench.New composes and validates them.
	var options []lmbench.Option
	if *calibrateFlag {
		target, err := calibrationTarget(*targetFlag, *machineFlag, *storeFlag)
		if err != nil {
			return err
		}
		options = append(options, lmbench.WithCalibrateTarget(target))
	} else {
		opts := lmbench.Options{}
		if *fastFlag {
			opts = core.FastOptions()
		}
		options = append(options, lmbench.WithOptions(opts), lmbench.WithStore(*storeFlag))
	}
	targets, closeTargets, err := buildTargets(catalog, *machineFlag)
	if err != nil {
		return err
	}
	defer closeTargets()
	var chaotic []*faults.Machine
	if *chaosFlag != "" {
		plan, err := faults.ParsePlan(*chaosFlag)
		if err != nil {
			return err
		}
		for i, m := range targets {
			// Distinct per-machine seeds keep parallel runs deterministic
			// while machines see independent fault streams.
			p := plan
			p.Seed += int64(i)
			f := faults.Wrap(m, p)
			chaotic = append(chaotic, f)
			targets[i] = f
		}
	}
	for _, m := range targets {
		options = append(options, lmbench.WithMachine(m))
	}
	for _, path := range profilePaths {
		options = append(options, lmbench.WithProfileFile(path))
	}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			options = append(options, lmbench.WithOnly(strings.TrimSpace(id)))
		}
	}
	if *extFlag {
		options = append(options, lmbench.WithExtended())
	}
	options = append(options,
		lmbench.WithTimeout(*timeoutFlag), lmbench.WithRetries(*retryFlag),
		lmbench.WithMaxRSD(*rsdFlag, *qretryFlag),
		lmbench.WithFleet(*fleetFlag), lmbench.WithFleetConnect(fleetConnect...),
		lmbench.WithUnitCache(*cacheFlag), lmbench.WithUnitCacheLimit(*cacheMaxFlag),
		lmbench.WithPublish(*publishFlag), lmbench.WithPublishRetries(*pubRetriesFlag),
		lmbench.WithRunLabel(*runLabelFlag))
	if *cacheROFlag {
		options = append(options, lmbench.WithUnitCacheReadOnly())
	}
	// Only a -sweep given on the command line sets the mode, so a run
	// without one keeps its own default: exhaustive sweeps for a
	// benchmark run, adaptive ones for a calibration's candidates.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "sweep" {
			options = append(options, lmbench.WithSweepMode(lmbench.SweepMode(*sweepFlag)))
		}
	})
	// The sweep: line sums the planner decisions the run's finished
	// events carry, fleet workers' included.
	var sweep sweepTally
	if *sweepFlag == string(lmbench.SweepAdaptive) {
		options = append(options, lmbench.WithSink(&sweep))
	}
	if journal := *journalFlag + *resumeFlag; journal != "" { // at most one is set
		options = append(options, lmbench.WithJournal(journal))
	}

	if !*quietFlag {
		// Several targets' units overlap (at GOMAXPROCS ≥ 2, or across
		// fleet workers), so their lines carry the machine name.
		if len(targets) > 1 {
			options = append(options, lmbench.WithSink(lmbench.NewPrefixedTextSink(stderr)))
		} else {
			options = append(options, lmbench.WithSink(lmbench.NewTextSink(stderr)))
		}
	}
	db := &lmbench.DB{}
	for _, path := range merges {
		if err := mergeFile(db, path); err != nil {
			return err
		}
	}

	var registry *lmbench.Registry
	var progress *lmbench.Progress
	if *serveFlag != "" {
		registry, progress = lmbench.NewRegistry(), lmbench.NewProgress()
		options = append(options, lmbench.WithMetrics(registry), lmbench.WithSink(progress))
	}
	bench := lmbench.New(options...)
	// A refused configuration opens nothing: no -trace or -spans file,
	// no -serve listener, no pprof file, no emptied -journal. The file
	// sinks join the validated bench (an Option is a func(*Bench)).
	if err := bench.Validate(); err != nil {
		return err
	}
	if *traceFlag != "" {
		tf, err := os.Create(*traceFlag)
		if err != nil {
			return err
		}
		defer func() { _ = tf.Close() }()
		lmbench.WithSink(lmbench.NewJSONLSink(tf))(bench)
	}
	if *spansFlag != "" {
		sf, err := os.Create(*spansFlag)
		if err != nil {
			return err
		}
		tr := lmbench.NewTraceSink(sf).WithSamples()
		defer func() {
			_ = tr.Close() // emit the root suite span
			_ = sf.Close()
		}()
		lmbench.WithSink(tr)(bench)
	}
	if *serveFlag != "" {
		srv := &lmbench.Server{Registry: registry, Progress: progress}
		addr, stopServe, err := srv.Start(ctx, *serveFlag)
		if err != nil {
			return fmt.Errorf("-serve: %w", err)
		}
		defer stopServe()
		if !*quietFlag {
			fmt.Fprintf(stderr, "observability: http://%s/metrics /progress /healthz\n", addr)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "lmbench: memprofile:", err)
			}
			_ = f.Close()
		}()
	}
	if *journalFlag != "" {
		// -journal starts afresh; -resume replays the file and keeps
		// appending to it.
		if err := os.WriteFile(*journalFlag, nil, 0o644); err != nil {
			return err
		}
	}
	rep, err := bench.Run(ctx)
	if err != nil {
		return err
	}
	if *calibrateFlag {
		return emitProfile(rep.Calibration, *emitFlag, *quietFlag, stdout, stderr)
	}

	if !*quietFlag {
		for _, f := range chaotic {
			fmt.Fprintf(stderr, "%s: chaos: %s\n", f.Name(), f.Stats())
		}
		if rep.Cache != nil {
			fmt.Fprintf(stderr, "unit-cache: %s\n", rep.Cache)
		}
		if *sweepFlag == string(lmbench.SweepAdaptive) {
			fmt.Fprintf(stderr, "sweep: measured=%d skipped=%d\n", sweep.measured.Load(), sweep.skipped.Load())
		}
		for _, m := range targets {
			if ids := rep.Skipped[m.Name()]; len(ids) > 0 {
				fmt.Fprintf(stderr, "%s: skipped (unsupported): %s\n", m.Name(), strings.Join(ids, ", "))
			}
		}
		if *storeFlag != "" || *publishFlag != "" {
			fmt.Fprintf(stderr, "published run %s\n", rep.RunID)
		}
	}

	// Preloaded -merge entries join the output, never the stored run.
	db.Merge(rep.DB)
	if *summaryFlag {
		for i, m := range targets {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			if err := paper.RenderSummary(stdout, db, m.Name()); err != nil {
				return err
			}
		}
	} else if err := paper.RenderAll(stdout, db); err != nil {
		return err
	}
	if *outFlag == "" {
		return nil
	}
	f, err := os.Create(*outFlag)
	if err != nil {
		return err
	}
	if err := db.Encode(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// sweepTally sums the adaptive sweep planner's decisions off the run's
// finished events (Event.Sweep).
type sweepTally struct{ measured, skipped atomic.Int64 }

func (t *sweepTally) Event(e lmbench.Event) {
	t.measured.Add(e.Sweep["points_measured"])
	t.skipped.Add(e.Sweep["points_skipped"])
}

// buildTargets builds the -machine selection: the host, every
// compiled-in simulated machine, or one catalog machine. The returned
// func releases the host backend.
func buildTargets(catalog *lmbench.Catalog, name string) ([]lmbench.Machine, func(), error) {
	switch name {
	case "host":
		hm, err := lmbench.NewHostMachine()
		if err != nil {
			return nil, nil, err
		}
		return []lmbench.Machine{hm}, func() { _ = hm.Close() }, nil
	case "all-sim":
		var ms []lmbench.Machine
		for _, n := range lmbench.SimMachineNames() {
			m, err := lmbench.NewSimMachine(n)
			if err != nil {
				return nil, nil, err
			}
			ms = append(ms, m)
		}
		return ms, func() {}, nil
	}
	m, err := lmbench.NewSimMachineIn(catalog, name)
	if err != nil {
		return nil, nil, err
	}
	return []lmbench.Machine{m}, func() {}, nil
}

// mergeFile preloads one -merge results database into db.
func mergeFile(db *lmbench.DB, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	loaded, err := results.Decode(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	db.Merge(loaded)
	return nil
}

// list prints the compiled-in simulated machines and the experiments.
func list(w io.Writer, catalog *lmbench.Catalog) error {
	fmt.Fprintln(w, "simulated machines:")
	for _, n := range lmbench.SimMachineNames() {
		p, _ := catalog.ByName(n)
		fmt.Fprintf(w, "  %-16s %s, %s @%gMHz (%d)\n", n, p.OSName, p.CPUName, p.MHz, p.Year)
	}
	fmt.Fprintln(w, "experiments:")
	for _, e := range lmbench.Experiments() {
		fmt.Fprintf(w, "  %-8s %s\n", e.ID, e.Title)
	}
	fmt.Fprintln(w, "extensions (with -extensions):")
	for _, e := range lmbench.Extensions() {
		fmt.Fprintf(w, "  %-10s %s\n", e.ID, e.Title)
	}
	return nil
}

// calibrationTarget resolves -target for -calibrate: the paper's
// numbers, a stored run (with -store), or a results-db file.
func calibrationTarget(spec, machine, storeDir string) (lmbench.CalibrationTarget, error) {
	switch {
	case spec == "":
		return lmbench.CalibrationTarget{}, errors.New("-calibrate requires -target: 'paper', 'run:<ref>' (with -store), or a results-db file")
	case spec == "paper":
		return lmbench.CalibrationFromPaper(machine)
	case !strings.HasPrefix(spec, "run:"):
		return lmbench.CalibrationFromFile(spec, machine)
	case storeDir == "":
		return lmbench.CalibrationTarget{}, errors.New("-target run:<ref> needs -store <dir> to resolve the run")
	}
	s, err := lmbench.OpenStore(storeDir)
	if err != nil {
		return lmbench.CalibrationTarget{}, err
	}
	_, db, err := s.DB(strings.TrimPrefix(spec, "run:"))
	if err != nil {
		return lmbench.CalibrationTarget{}, err
	}
	return lmbench.CalibrationFromDB(db, machine)
}

// emitProfile writes a calibration's fitted profile to -emit (or
// stdout) in the canonical encoding -profile reads back, and fails
// when a parameter did not converge.
func emitProfile(res *lmbench.CalibrationResult, emit string, quiet bool, stdout, stderr io.Writer) error {
	if emit != "" {
		if err := lmbench.WriteProfileFile(emit, res.Profile); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(stderr, "wrote fitted profile to %s\n", emit)
		}
	} else {
		b, err := lmbench.EncodeProfile(res.Profile)
		if err != nil {
			return err
		}
		if _, err := stdout.Write(b); err != nil {
			return err
		}
	}
	if res.Converged {
		return nil
	}
	n := 0
	for _, pr := range res.Params {
		if pr.Converged {
			n++
		}
	}
	return fmt.Errorf("calibration converged on %d/%d parameters (budget %d evals spent)", n, len(res.Params), res.Evals)
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
