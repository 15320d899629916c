// Command qbench is the repository's end-to-end benchmark. It builds
// cmd/qserved from this checkout, starts it as a separate process on
// 127.0.0.1, drives one of four workloads generated by internal/sim from
// a seed, checks the served estimates against the generator's ground
// truth, and prints every metric by name with its unit.
//
// Run it from the repository root through bench/run.sh, which builds the
// driver and keeps every build file under .bench_build/:
//
//	bash bench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -runs 5 -out a.json       # every workload, alternating
//	bash bench/run.sh -compare a.json b.json    # one row per metric × workload
//	bash bench/run.sh -report -seed 7           # attribution + tracing overhead
//
// A single run writes a readable account to standard error and, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "ms"}, ...}}
//
// holding the end-to-end metrics (-trace 0) or the per-layer metrics of a
// run with every ingest request traced (-trace 1). It exits 1 when the
// correctness gate fails. bench/README.md describes the workloads and
// metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// A run launches and warms up a daemon at least setups times, and again
// while those set-ups took under setupBudget in total: a quick set-up is
// repeated until its median holds still. setup_s is the median and the
// measured phase runs on the last daemon.
const (
	setups      = 3
	setupBudget = 2 * time.Second
)

// drainCap bounds the wait for measured seals after the phase.
const drainCap = 10 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: fleet, bigwin, ingest or coldstart (-runs and -report default to all)")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 20, "length of the measured phase in seconds")
		traced  = flag.Int("trace", 0, "1 traces every ingest request and reports per-layer metrics")
		runs    = flag.Int("runs", 0, "run every selected workload this many times, alternating, and report median and quartiles")
		out     = flag.String("out", "", "with -runs: also write the result document to this file")
		report  = flag.Bool("report", false, "run each selected workload untraced and traced; print attribution and tracing overhead")
		compare = flag.Bool("compare", false, "compare two -runs documents given as arguments: a.json b.json")
	)
	flag.Parse()
	// The driver shares the host with the daemon: two threads at most.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := dispatch(ctx, *name, *seed, *seconds, *traced, *runs, *out, *report, *compare); err != nil {
		fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, name string, seed uint64, seconds float64, traced, runs int, out string, report, compare bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result documents")
		}
		return compareDocs(os.Stdout, root, flag.Arg(0), flag.Arg(1))
	}
	if seconds <= 0 || traced < 0 || traced > 1 {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	selected := workloads
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}
	build := filepath.Join(root, ".bench_build")
	tmp := filepath.Join(build, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(ctx, root, build)
	if err != nil {
		return err
	}
	cfg := func(w *workload, seed uint64, traced bool) config {
		return config{w: w, seed: seed, measure: time.Duration(seconds * float64(time.Second)),
			traced: traced, setups: setups, setupBudget: setupBudget, drain: drainCap, bin: bin, tmp: tmp}
	}
	switch {
	case runs > 0:
		return runMany(ctx, os.Stdout, root, selected, runs, seed, out, cfg)
	case report:
		return runReport(ctx, os.Stdout, selected, seed, cfg)
	case name == "":
		return fmt.Errorf("a single run needs -workload")
	}
	res, err := execute(ctx, cfg(selected[0], seed, traced == 1))
	if err != nil {
		return err
	}
	res.print(os.Stderr)
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s failed the correctness gate", res.Workload)
	}
	return nil
}
