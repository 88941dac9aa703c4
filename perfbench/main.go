// Command perfbench is the repository's end-to-end benchmark. It builds
// the corpora in process from the generators' fixed seeds, loads them
// into durable stores through the public API, runs one workload, checks
// every answer against the triple-schema baseline and every write
// against its own set arithmetic, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	go run . --workload corpus-analytic --seed 1 --seconds 20 --trace 0
//
// --trace 1 runs the same workload through each layer's exported entry
// points with spans around every call and prints the per-layer metrics
// instead; --steady N runs each workload in two interleaved sets of N
// runs and prints each metric's spread. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one benchmark run's settings and accumulates its outcome.
type run struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workers  int    // load workers and the HTTP client count: nproc
	dir      string // scratch directory of this run (stores live here)

	mu        sync.Mutex // guards attempted, failed and errs: HTTP clients run concurrently
	attempted int
	failed    int
	errs      []string // output check failures
	metrics   map[string]metric
	tr        *tracer // nil unless tracing
	queries   int     // reads the traced pipeline ran
	sqlBytes  int64   // generated SQL over those reads
	jsonBytes int64   // encoded SPARQL JSON over those reads
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// attempt counts one operation the benchmark issued.
func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// opFailed counts an operation the program failed (an error return).
func (r *run) opFailed(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
}

// wrong records a failed output check.
func (r *run) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 20 {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
	}
	r.errs = append(r.errs, msg)
}

// endToEnd names the metrics the untraced run reports.
var endToEnd = []string{
	"setup_s", "query_p50_ms", "query_p99_ms", "corpus_geomean_ms", "queries_per_s",
	"update_p50_ms", "update_p90_ms", "alloc_bytes_per_op", "heap_bytes_per_triple",
	"disk_bytes_per_triple", "recovery_s",
}

var workloads = map[string]func(*run) error{
	"corpus-analytic": corpusAnalytic,
	"serve-mixed":     serveMixed,
}

func main() {
	workload := flag.String("workload", "", "workload to run: corpus-analytic or serve-mixed")
	seed := flag.Int64("seed", 1, "seed for query constants, request order and the write stream")
	seconds := flag.Int("seconds", 20, "nominal length of the timed phase; fixes the operation count")
	trace := flag.Int("trace", 0, "1 runs the traced pipeline and prints per-layer metrics")
	steady := flag.Int("steady", 0, "run each workload in two interleaved sets of this many runs and print spreads")
	flag.Parse()

	if *steady > 0 {
		if err := steadiness(*steady, *seconds, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want corpus-analytic or serve-mixed)\n", *workload)
		os.Exit(2)
	}
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workers:  runtime.NumCPU(),
		dir:      dir,
		metrics:  map[string]metric{},
	}
	if r.trace {
		r.tr = newTracer()
	}
	err = fn(r)
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.trace {
		if err := r.tr.write(filepath.Join(base, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if r.trace {
		// The traced run reports the per-layer metrics only; set-up and
		// recovery ran traced, so their end-to-end figures are not the
		// untraced run's.
		for _, n := range endToEnd {
			delete(r.metrics, n)
		}
	}
	rep := report{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-44s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	// Every operation of these workloads is expected to succeed, so a
	// failed one fails the run as a wrong answer does.
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}
