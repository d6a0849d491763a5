// Command bench is the repository's benchmark: four simulator workloads
// timed end to end (wall time, simulated references per host second,
// set-up time, peak memory), and a separate traced run that splits host
// time across the simulator's layers from outside, through their public
// APIs. Every simulation's output is checked. README.md has the
// workloads, the metrics and how to compare two commits.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload live-mtlb -seed 3 -seconds 24 -trace 0
//
// The last line of standard output is one JSON object per workload:
// {"correct", "attempted", "failed", "metrics"}; the end-to-end metrics
// untraced, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"shadowtlb/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the machine-readable line printed per workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(suiteNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed for the op order within each rep")
	seconds := fs.Float64("seconds", 24, "host seconds of timed reps per workload (at least two reps are made)")
	trace := fs.Int("trace", 0, "1 adds the traced rep and reports the per-layer metrics instead")
	traceOut := fs.String("trace-out", "", "with -trace 1, file `prefix` for the spans: prefix.jsonl and prefix.perfetto.json (default .bench_build/trace-WORKLOAD)")
	out := fs.String("o", "", "also append each result line to this `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	names := suiteNames
	if *name != "all" {
		names = []string{*name}
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	suites := make([]*suite, len(names))
	for i, n := range names {
		if suites[i], err = newSuite(n, exp.Paper, root); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	status := 0
	for _, s := range suites {
		cfg := config{seconds: *seconds, seed: *seed, trace: *trace == 1}
		if cfg.trace {
			cfg.traceOut = *traceOut
			if cfg.traceOut == "" {
				cfg.traceOut = filepath.Join(".bench_build", "trace-"+s.name)
			}
		}
		rep := measure(cfg, s)
		line, err := printReport(stdout, rep, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if *out != "" {
			if err := appendLine(*out, line); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !rep.correct() {
			status = 1
		}
	}
	return status
}

// repoRoot finds the repository root: the working directory, or its
// parent when running from bench/ (as go test does).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "internal")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("run from the repository root (no go.mod beside internal/ here or in the parent)")
}

// printReport writes the human-readable lines, then the JSON line, which
// it returns.
func printReport(w io.Writer, r report, cfg config) ([]byte, error) {
	fmt.Fprintf(w, "workload %s: %d reps, seed %d, nproc %d, GOMAXPROCS %d, %s\n",
		r.suite, len(r.repWalls), cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res := result{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(r.defs)),
	}
	for _, d := range r.defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-30s %s %s\n", d.name, formatValue(v), d.unit)
	}
	q1, q3 := quartiles(r.repWalls)
	fmt.Fprintf(w, "rep_wall_s q1 %s q3 %s of %s\n", formatValue(q1), formatValue(q3), formatList(r.repWalls))
	fmt.Fprintf(w, "check_s %s s (output checks, not gated)\n", formatValue(r.checkS))
	fmt.Fprintf(w, "error_rate %s (%d failed of %d attempted)\n",
		formatValue(ratio(float64(r.failed), float64(r.attempted))), r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Fprintf(w, "error %s\n", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	line = append(line, '\n')
	_, err = w.Write(line)
	return line, err
}

// formatValue renders a metric value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = formatValue(x)
	}
	return strings.Join(s, " ")
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(line)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
