// Command perfbench is the repository's benchmark. It runs one workload
// through the program's public entry points — the suite runner behind
// lmbench.New, fleet.Coordinator, the results store and
// calibrate.Calibrate — checks every output, and prints one JSON result
// object as the last line of standard output:
//
//	perfbench --workload paper-cold --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, timings in
// reference seconds (gauge.go); with --trace 1 it carries the per-layer
// metrics of a separate traced pass.
// A failed check prints a result with correct=false and no metrics and
// exits 1. perfbench/run.py builds the binary from source and runs it;
// README.md describes the workloads and the metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	lmbench "repro"
)

func main() {
	lmbench.MaybeChild() // fleet workers re-exec this binary
	maybeSetupChild()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; it reorders machines and fits")
	seconds := fs.Int("seconds", 16, "run length in seconds; it fixes the number of iterations")
	trace := fs.Int("trace", 0, "1 runs a separate traced pass and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for stores, caches and journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if err := writeLine(stdout, map[string]any{"env": environment()}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	out, err := runWorkload(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		_ = writeLine(stdout, result{Attempted: max(out.attempted, 1), Failed: 1, Metrics: map[string]metric{}})
		return 1
	}
	// The distribution behind each reported timing, or the per-layer
	// mapping, precedes the result.
	extra := map[string]any{"samples": out.samples}
	if cfg.trace {
		extra = map[string]any{"layers": layerTable()}
	}
	if err := writeLine(stdout, extra); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// A run with a failed operation fails a check and ends above, so a
	// printed result has none.
	if err := writeLine(stdout, result{Correct: true, Attempted: out.attempted, Metrics: out.metrics}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// environment records what a result was measured on, as Becker &
// Chakraborty recommend: CPU count, GOMAXPROCS, CPU model, Go version
// and the commit the binary was built from.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the build; a checkout that is
// not a repository has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// setupChildEnv carries a set-up request to a re-exec of this binary.
// Set-up is measured in fresh processes because machines.Build memoizes
// its DRAM inversion per process: a second in-process build of a profile
// is warm, while a user pays the cold build on every run.
const setupChildEnv = "PERFBENCH_SETUP_CHILD"

type setupRequest struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Small    bool   `json:"small"`
}

// maybeSetupChild turns a re-exec carrying setupChildEnv into one timed
// set-up: it prints the seconds taken and exits.
func maybeSetupChild() {
	spec := os.Getenv(setupChildEnv)
	if spec == "" {
		return
	}
	secs, err := setupOnce(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench set-up child:", err)
		os.Exit(1)
	}
	fmt.Println(strconv.FormatFloat(secs, 'g', -1, 64))
	os.Exit(0)
}

func setupOnce(spec string) (float64, error) {
	var req setupRequest
	if err := json.Unmarshal([]byte(spec), &req); err != nil {
		return 0, err
	}
	w, ok := workloadByName(req.Workload)
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", req.Workload)
	}
	p, err := w.plan(req.Seed, req.Small)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := setup(context.Background(), p, nil); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// setupInChild runs one timed set-up in a fresh process and returns its
// seconds.
func setupInChild(ctx context.Context, req setupRequest) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	spec, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), setupChildEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}
