// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload with a given seed, checks the program's answers
// against a reference it computes itself, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// the run records spans around every call it makes into a layer, writes
// them to a trace file, and reports the per-layer metrics derived from
// that file. "perfbench summarize <file>" prints a trace file's
// per-layer self times and metrics.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload pool-zipf --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// e2eUnits fixes the end-to-end metrics every workload reports.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"ingest_rate":    "M/s",
	"query_p50_us":   "us",
	"query_p99_us":   "us",
	"insert_p50_us":  "us",
	"insert_p99_us":  "us",
	"overcount_mean": "ppm",
	"server_rss_mb":  "MB",
}

// options are one run's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dsserve  string // dsserve binary (cluster workloads)
	workDir  string // scratch space for trace files and checkpoint dirs
	// tiny shrinks inputs and repetitions for the smoke test.
	tiny bool
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	attempted, failed int64
	mu                sync.Mutex // guards violations: clients report concurrently
	violations        []string
	e2e               map[string]float64
	counters          map[string]float64 // per-layer counter metrics
	tracer            *tracer
}

func (o *outcome) violate(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"pool-zipf":          func(ctx context.Context, o options) (*outcome, error) { return runPool(ctx, o, false) },
	"pool-uniform-stale": func(ctx context.Context, o options) (*outcome, error) { return runPool(ctx, o, true) },
	"cluster-routed":     func(ctx context.Context, o options) (*outcome, error) { return runCluster(ctx, o, false) },
	"cluster-rebalance":  func(ctx context.Context, o options) (*outcome, error) { return runCluster(ctx, o, true) },
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if len(os.Args) > 1 && os.Args[1] == "summarize" {
		os.Exit(summarizeCmd(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one workload and writes the result line to stdout. It
// returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	var seed int64
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&o.dsserve, "dsserve", "", "dsserve binary (required by the cluster workloads)")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for trace files and temporary state")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny inputs (smoke test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seed, o.trace = uint64(seed), trace == 1
	wl, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		log.Printf("unknown workload %q (have %v)", o.workload, names)
		return 2
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		log.Printf("%v", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	out, err := wl(ctx, o)
	if err != nil {
		log.Printf("%s: %v", o.workload, err)
		return 1
	}
	if ctx.Err() != nil {
		log.Printf("interrupted")
		return 130
	}
	res, err := report(o, out)
	if err != nil {
		log.Printf("%v", err)
		return 1
	}
	for _, v := range out.violations {
		log.Printf("check failed: %s", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Printf("%v", err)
		return 1
	}
	if _, err := fmt.Fprintln(stdout, string(line)); err != nil {
		log.Print(err)
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// report builds the result line: the end-to-end metrics, or in a traced
// run the per-layer metrics read back from the trace file just written.
func report(o options, out *outcome) (result, error) {
	res := result{
		Correct:   len(out.violations) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if !o.trace {
		for name, unit := range e2eUnits {
			v, ok := out.e2e[name]
			if !ok {
				return res, fmt.Errorf("workload did not measure %s", name)
			}
			res.Metrics[name] = metric{Value: v, Unit: unit}
		}
		return res, nil
	}
	// The end-to-end figures of a traced run only serve to size the
	// tracing overhead; they go to stderr.
	for _, name := range sortedKeys(out.e2e) {
		log.Printf("traced %s=%.6g", name, out.e2e[name])
	}
	path := filepath.Join(o.workDir, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
	if err := out.tracer.write(path, out.counters); err != nil {
		return res, fmt.Errorf("writing trace: %w", err)
	}
	spans, counters, err := readTrace(path)
	if err != nil {
		return res, err
	}
	tree := buildTree(spans)
	log.Print("per-span times:\n" + tree.selfTable())
	for name, v := range layerMetrics(tree, counters) {
		res.Metrics[name] = metric{Value: v, Unit: layerUnits[name]}
	}
	return res, nil
}

// summarizeCmd prints a trace file's per-span self times and the
// per-layer metrics derived from it.
func summarizeCmd(args []string) int {
	if len(args) != 1 {
		log.Print("usage: perfbench summarize <trace.jsonl>")
		return 2
	}
	spans, counters, err := readTrace(args[0])
	if err != nil {
		log.Printf("%v", err)
		return 1
	}
	tree := buildTree(spans)
	fmt.Println(tree.selfTable())
	m := layerMetrics(tree, counters)
	for _, name := range sortedKeys(m) {
		fmt.Printf("%-36s %14.4f %s\n", name, m[name], layerUnits[name])
	}
	return 0
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// procStatusMB reads one memory field (VmHWM, VmRSS) of a process's
// /proc status, in MB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, field+": %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// medianSeconds is the median of a set of set-up times, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	return quantile(durations(ds, time.Second), 0.5)
}
