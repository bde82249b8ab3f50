// Command perfbench is the repository's end-to-end benchmark. It drives
// the system from outside, through the surfaces the binaries use
// (serve.New over net/http on loopback, store.Open, engine.Scorer,
// control.Run), over three workloads:
//
//	online           the daemon answering single, store-backed and batch
//	                 scoring requests under open-loop Poisson load
//	fleet-day        the operator's daily ingest + whole-fleet pass over
//	                 ~10k drives, closed loop
//	control-refresh  control.Run through one drift, WEFR re-selection,
//	                 canary and promotion
//
// Usage:
//
//	perfbench --workload online --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones,
// measured in a run that records spans at every layer boundary (the
// spans are written to .bench_out/ when the run ends). README.md lists
// every metric, its definition per workload and what it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workers is the number of in-flight connections or worker goroutines
// the load comes from: one per CPU, so the generator never needs more
// parallelism than the machine offers the daemon.
var workers = runtime.NumCPU()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setups is how many times each run sets its workload up from scratch;
// setup_s is the median.
const setups = 3

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	checkErrs         []string
	endToEnd          map[string]metric
	layers            map[string]metric
	lines             []string // human-readable report, printed before the JSON
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]metric{}, layers: map[string]metric{}}
}

func (o *outcome) e2e(name string, v float64, unit string) {
	o.endToEnd[name] = metric{v, unit}
}

func (o *outcome) layer(name string, v float64, unit string) {
	o.layers[name] = metric{v, unit}
}

func (o *outcome) logf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// check records a correctness failure; it fails the run.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
	}
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory inside the checkout, removed at exit
	tr      *tracer
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"online":          runOnline,
	"fleet-day":       runFleetDay,
	"control-refresh": runRefresh,
}

func main() {
	var (
		workload = flag.String("workload", "", "online | fleet-day | control-refresh")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(".bench_work", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_work", workload+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := runConfig{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1, work: work}
	if cfg.trace {
		cfg.tr = newTracer()
	}
	fmt.Printf("perfbench: workload %s, seed %d, %d s, trace %d; nproc %d, GOMAXPROCS %d, %s\n",
		workload, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.e2e("rss_peak_mb", peak, "MB")
	if cfg.trace {
		if err := os.MkdirAll(".bench_out", 0o755); err != nil {
			return err
		}
		path := filepath.Join(".bench_out", fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
		if err := cfg.tr.writeJSONL(path); err != nil {
			return err
		}
		out.logf("spans: %d written to %s", len(cfg.tr.snapshot()), path)
	}
	return report(out, cfg.trace)
}

// report prints the human-readable lines, every metric by name with its
// unit, and the result line; a failed correctness check fails the run
// after the result is printed.
func report(out *outcome, traced bool) error {
	for _, l := range out.lines {
		fmt.Println(l)
	}
	ms := out.endToEnd
	kind := "end-to-end"
	if traced {
		ms, kind = out.layers, "per-layer"
	}
	names := make([]string, 0, len(ms))
	for n, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-40s %.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
	for _, e := range out.checkErrs {
		fmt.Println("CHECK FAILED:", e)
	}
	failed := out.failed
	if len(out.checkErrs) > 0 && failed == 0 {
		failed = 1
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.checkErrs) == 0 && failed == 0, max(out.attempted, 1), failed, ms}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed or were wrong", failed, out.attempted)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
