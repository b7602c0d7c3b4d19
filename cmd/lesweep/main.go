// Command lesweep runs the artifact sweep matrix as a distributed job: it
// plans the same cell matrix as `lebench -exp sweeps`, cuts it into
// contiguous shards, runs one worker per shard, and merges the partial
// artifacts into a single BENCH_harness.json-format file.
//
// Per-trial seeds are pure functions of the root seed and the cell, so
// the merged artifact is byte-identical to a single-process
// `lebench -exp sweeps -strip-timings` run of the same seed — which is
// how CI's dist-sweep job verifies it, with cmp:
//
//	lesweep -workers 2 -quick -json BENCH_dist.json
//	lebench -exp sweeps -quick -parallel -strip-timings -json BENCH_local.json
//	cmp BENCH_dist.json BENCH_local.json
//
// By default workers run in-process (goroutine shards over one
// GOMAXPROCS pool — cheapest, no subprocess spawn). -exec switches to
// process workers: each shard becomes a `lebench -cells i:j` subprocess
// whose partial artifact the coordinator collects, which is the mode
// that generalizes to many machines. Crashed workers are retried
// (-retries) before the sweep fails.
//
// -debug-addr serves the live sweep view while it runs: /metrics is the
// Prometheus registry (per-worker spans, cells done, ETA gauges),
// /debug/progress is the coordinator's JSON progress (per-worker state,
// elapsed, retries, running ETA), /debug/pprof/* the standard profiles.
// -trace-out and -metrics-out flush the phase spans (Chrome trace-event
// JSON) and the registry snapshot after the merge.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"anonlead/internal/obs"
	"anonlead/internal/spectral"
	"anonlead/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lesweep:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workers    = flag.Int("workers", 2, "number of shards to cut the plan into")
		parallel   = flag.Int("parallel", 0, "max workers running at once (0 = all; in-process workers share one pool anyway)")
		retries    = flag.Int("retries", 1, "reruns of a crashed worker before the sweep fails")
		local      = flag.Bool("local", true, "run workers in-process (goroutine shards)")
		execCmd    = flag.String("exec", "", "run workers as subprocesses of this lebench command (e.g. 'go run ./cmd/lebench'); implies -local=false")
		quick      = flag.Bool("quick", false, "shrunken CI matrix (must match the comparison lebench run)")
		trials     = flag.Int("trials", 0, "override trials per cell (0 = matrix defaults)")
		seed       = flag.Uint64("seed", 1, "root seed; per-trial seeds derive deterministically from it")
		profile    = flag.String("profile", "auto", "spectral profile regime for sweep cells: exact, estimate, or auto")
		jsonPath   = flag.String("json", "BENCH_dist.json", "where to write the merged artifact")
		keep       = flag.Bool("keep-partials", false, "leave per-worker partial artifacts on disk (subprocess mode)")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/pprof/* and the /debug/progress live sweep view on this address (e.g. localhost:6060)")
		traceOut   = flag.String("trace-out", "", "write the sweep's phase spans as Chrome trace-event JSON after the merge")
		metricsOut = flag.String("metrics-out", "", "write the metrics-registry snapshot as JSON after the merge (render with lereport -phases)")
	)
	flag.Parse()

	mode, err := spectral.ParseMode(*profile)
	if err != nil {
		return err
	}
	if *traceOut != "" || *metricsOut != "" || *debugAddr != "" {
		obs.Enable()
	}
	var logw io.Writer = os.Stderr
	if *quiet {
		logw = nil
	}
	cfg := sweep.Config{
		Workers:      *workers,
		Parallel:     *parallel,
		Retries:      *retries,
		Quick:        *quick,
		Trials:       *trials,
		Seed:         *seed,
		Profile:      mode,
		KeepPartials: *keep,
		Log:          logw,
	}
	if *execCmd != "" {
		cfg.Exec = strings.Fields(*execCmd)
	} else if !*local {
		return fmt.Errorf("-local=false requires -exec (no worker command to spawn)")
	}

	c := sweep.ForSweeps(cfg)
	if *debugAddr != "" {
		addr, err := obs.Serve(*debugAddr, func() any { return c.Progress() })
		if err != nil {
			return fmt.Errorf("debug endpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "lesweep: debug endpoint on http://%s\n", addr)
	}
	art, err := c.Run(context.Background())
	if err != nil {
		return err
	}
	if err := art.WriteFile(*jsonPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells, merged from %d workers)\n", *jsonPath, len(art.Cells), *workers)
	if *traceOut != "" {
		if err := obs.WriteChromeTraceFile(*traceOut); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Printf("wrote %s (%d spans)\n", *traceOut, len(obs.SpanEvents()))
	}
	if *metricsOut != "" {
		if err := obs.WriteSnapshotFile(*metricsOut); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	return nil
}
