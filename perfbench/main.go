// Command perfbench is the repository's benchmark. It runs one named
// workload against the program built from this checkout, checks the
// answers, and prints every metric by name with its unit, then one JSON
// line:
//
//	bash perfbench/run.sh --workload bounded-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics of an untraced
// run; with --trace 1 the run is replayed a second time with a span
// around every call the benchmark makes, and the JSON carries the
// per-layer metrics. BENCHMARK.json at the repository root lists both,
// with each workload's rationale.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // the checkout
	work     string // this run's scratch directory, removed at exit
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "bounded-read, ingest-mixed or serve-http")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and operation stream")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the timed phase; it fixes the operation count")
	flag.IntVar(&trace, "trace", 0, "1 replays the stream traced and reports per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; scratch files go under its .bench_build")
	flag.Parse()
	cfg.trace = trace == 1
	os.Exit(run(cfg))
}

func run(cfg config) int {
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	start := time.Now()
	cfg.work = filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	defer removeAll(cfg.work)
	rep := &report{w: os.Stdout, metrics: map[string]metric{}, exact: map[string]float64{}}
	fmt.Fprintf(rep.w, "workload %s seed %d seconds %d trace %t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	var err error
	switch cfg.workload {
	case "bounded-read":
		err = runClosed(cfg, boundedRead, rep)
	case "ingest-mixed":
		err = runClosed(cfg, ingestMixed, rep)
	case "serve-http":
		err = runServe(cfg, rep)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(rep.w, "run took %.1f s\n", time.Since(start).Seconds())
	if !rep.finish() {
		return 1
	}
	return 0
}
