// Package sweep orchestrates distributed artifact sweeps: a coordinator
// plans the canonical cell matrix (harness.SweepsPlan), shards it across
// workers by contiguous plan-index ranges, runs the workers — either
// in-process or as lebench subprocesses given a -cells selector —
// collects their partial artifacts, and merges them with
// harness.MergeArtifacts into the one artifact a single process would
// have written.
//
// Determinism is the whole point: per-trial seeds are pure functions of
// the root seed and the cell, never of which worker runs it, so the
// merged artifact is byte-identical (after StripTimings) to a local
// single-process sweep of the same seed. CI's dist-sweep job proves that
// with cmp on every PR; TestDistributedByteIdentity proves it in-process.
//
// The coordinator retries crashed workers (a retried worker overlapping
// its crashed attempt is harmless: identical duplicate cells merge
// cleanly), bounds how many workers run at once, and logs progress per
// worker. cmd/lesweep is the CLI.
package sweep

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"anonlead/internal/harness"
	"anonlead/internal/obs"
	"anonlead/internal/spectral"
)

// Config tunes a distributed sweep coordinator. The zero value runs two
// in-process workers over the full (non-quick) matrix with seed 0.
type Config struct {
	// Workers is the number of shards the plan is cut into (min 1; capped
	// at the plan's cell count).
	Workers int
	// Parallel bounds how many workers run at once (0 = all of them).
	// In-process workers already fan out internally via Engine, so local
	// mode usually wants Parallel 1; subprocess workers are independent
	// processes and default to full overlap.
	Parallel int
	// Retries is how many times a crashed worker is rerun before the
	// sweep fails (0 = no retries).
	Retries int

	// Exec, when non-empty, runs each worker as a subprocess: the argv
	// prefix of a lebench-compatible command (e.g. ["go", "run",
	// "./cmd/lebench"]), to which the coordinator appends
	// -exp sweeps -parallel -seed … -cells … -json … and the
	// quick/trials/profile flags. Empty Exec runs workers in-process.
	Exec []string
	// Dir is the working directory of subprocess workers ("" = inherit).
	Dir string
	// WorkDir is where partial artifacts land ("" = a temp dir, removed
	// after the merge unless KeepPartials).
	WorkDir string
	// KeepPartials leaves the per-worker partial artifacts on disk.
	KeepPartials bool

	// Sweep parameters, shared by every worker (they parameterize the
	// plan, so coordinator and workers must agree on all three).
	Quick  bool
	Trials int
	Seed   uint64
	// Profile pins the spectral profile regime of every cell (the lebench
	// -profile flag).
	Profile spectral.Mode

	// Engine is the orchestrator in-process workers run cells on (zero =
	// GOMAXPROCS pool, matching lebench -parallel).
	Engine harness.Orchestrator

	// Log receives progress lines (nil = discarded).
	Log io.Writer
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

func (c Config) parallel(n int) int {
	p := c.Parallel
	if p <= 0 || p > n {
		p = n
	}
	return p
}

// Coordinator shards one sweep plan across workers and merges the
// partial artifacts.
type Coordinator struct {
	cfg  Config
	plan harness.Plan

	// runWorker is the per-worker execution hook (swapped by tests to
	// inject crashes); it defaults to in-process or subprocess execution
	// depending on cfg.Exec.
	runWorker func(ctx context.Context, w workerTask) (harness.Artifact, error)

	// prog is the live progress tracker of the current Run (nil before
	// the first Run); the -debug-addr endpoint polls it via Progress.
	progMu sync.Mutex
	prog   *progressState

	logMu sync.Mutex // workers log concurrently; cfg.Log need not be safe for that
}

// workerTask is one worker's share of the plan.
type workerTask struct {
	id       int // 0-based worker index
	sel      harness.CellSelector
	indices  []int
	total    int
	partPath string // subprocess mode: where the partial artifact lands
}

// New builds a coordinator over an explicit plan (tests shard tiny
// hand-built plans; production callers use ForSweeps).
func New(cfg Config, plan harness.Plan) *Coordinator {
	c := &Coordinator{cfg: cfg, plan: plan}
	if len(cfg.Exec) > 0 {
		c.runWorker = c.runExecWorker
	} else {
		c.runWorker = c.runLocalWorker
	}
	return c
}

// ForSweeps builds a coordinator over the canonical artifact matrix for
// the config's quick/trials/seed parameters.
func ForSweeps(cfg Config) *Coordinator {
	return New(cfg, harness.SweepsPlan(cfg.Quick, cfg.Trials, cfg.Seed))
}

// Plan exposes the coordinator's plan (lesweep logs its size).
func (c *Coordinator) Plan() harness.Plan { return c.plan }

// Run executes the distributed sweep: partition, run workers (bounded,
// with per-worker retries), merge. The returned artifact is the merged
// whole — deterministic content only, byte-identical to a single-process
// sweep of the same seed after StripTimings.
func (c *Coordinator) Run(ctx context.Context) (harness.Artifact, error) {
	total := c.plan.Len()
	if total == 0 {
		return harness.Artifact{}, fmt.Errorf("sweep: empty plan, nothing to distribute")
	}
	sels := harness.PartitionPlan(total, c.cfg.workers())

	workDir := c.cfg.WorkDir
	if len(c.cfg.Exec) > 0 && workDir == "" {
		dir, err := os.MkdirTemp("", "lesweep-partials-")
		if err != nil {
			return harness.Artifact{}, fmt.Errorf("sweep: %w", err)
		}
		workDir = dir
		if !c.cfg.KeepPartials {
			defer os.RemoveAll(dir)
		}
	}

	mode := "in-process"
	if len(c.cfg.Exec) > 0 {
		mode = "subprocess"
	}
	c.logf("plan: %d cells across %d %s workers (seed %d, quick=%v)",
		total, len(sels), mode, c.cfg.Seed, c.cfg.Quick)

	tasks := make([]workerTask, len(sels))
	for i, sel := range sels {
		idxs, err := sel.Indices(total)
		if err != nil {
			return harness.Artifact{}, fmt.Errorf("sweep: %w", err)
		}
		tasks[i] = workerTask{
			id: i, sel: sel, indices: idxs, total: total,
			partPath: filepath.Join(workDir, fmt.Sprintf("partial-%d.json", i)),
		}
	}

	c.progMu.Lock()
	c.prog = newProgressState(total, tasks)
	c.progMu.Unlock()

	parts := make([]harness.Artifact, len(tasks))
	err := forEach(c.cfg.parallel(len(tasks)), len(tasks), func(i int) error {
		return c.runWithRetry(ctx, tasks[i], &parts[i])
	})
	if err != nil {
		return harness.Artifact{}, err
	}

	merged, err := harness.MergeArtifacts(parts)
	if err != nil {
		return harness.Artifact{}, err
	}
	c.logf("merged %d cells from %d partial artifacts", len(merged.Cells), len(parts))
	return merged, nil
}

// runWithRetry drives one worker through its retry budget, keeping the
// progress tracker (and through it the registry gauges and the -debug-addr
// progress view) current.
func (c *Coordinator) runWithRetry(ctx context.Context, w workerTask, out *harness.Artifact) error {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			c.prog.finish(w.id, 0, true)
			return fmt.Errorf("sweep: worker %d: %w", w.id, err)
		}
		if attempt == 0 {
			c.logf("worker %d/%d (cells %s): start", w.id+1, c.cfg.workers(), w.sel)
		} else {
			c.logf("worker %d/%d (cells %s): retry %d/%d after: %v",
				w.id+1, c.cfg.workers(), w.sel, attempt, c.cfg.Retries, lastErr)
		}
		c.prog.startAttempt(w.id, attempt)
		start := time.Now()
		endSpan := obs.Span("worker", workerLabel(w))
		art, err := c.runWorker(ctx, w)
		endSpan()
		if err == nil {
			c.prog.finish(w.id, len(art.Cells), false)
			p := c.Progress()
			c.logf("worker %d/%d: done in %.1fs (%d cells; sweep %d/%d cells, %s)",
				w.id+1, c.cfg.workers(), time.Since(start).Seconds(), len(art.Cells),
				p.CellsDone, p.PlanCells, etaString(p.ETASeconds, p.CellsDone))
			*out = art
			return nil
		}
		lastErr = err
	}
	c.prog.finish(w.id, 0, true)
	return fmt.Errorf("sweep: worker %d (cells %s) failed after %d attempt(s): %w",
		w.id, w.sel, c.cfg.Retries+1, lastErr)
}

// workerLabel is the span detail naming a worker's cell range; it formats
// nothing while telemetry is disabled.
func workerLabel(w workerTask) string {
	if !obs.Enabled() {
		return ""
	}
	return fmt.Sprintf("worker %d cells %s", w.id, w.sel)
}

// runLocalWorker executes one worker's cells in-process on the configured
// engine — the same code path a lebench -cells subprocess runs, minus the
// process boundary.
func (c *Coordinator) runLocalWorker(ctx context.Context, w workerTask) (harness.Artifact, error) {
	all := c.plan.Specs()
	specs := make([]harness.CellSpec, len(w.indices))
	for j, idx := range w.indices {
		specs[j] = all[idx]
		specs[j].Opts.ProfileMode = c.cfg.Profile
	}
	start := time.Now()
	cells, err := c.cfg.Engine.RunSweep(specs)
	if err != nil {
		return harness.Artifact{}, err
	}
	art := harness.NewArtifact(c.cfg.Engine, specs, cells, time.Since(start))
	art.Plan = &harness.ArtifactPlan{Total: w.total, Indices: w.indices}
	return art, nil
}

// runExecWorker spawns one lebench worker subprocess and reads back its
// partial artifact. Any failure — spawn error, non-zero exit, an
// unreadable artifact — counts as a worker crash and is retried by the
// caller.
func (c *Coordinator) runExecWorker(ctx context.Context, w workerTask) (harness.Artifact, error) {
	args := append([]string{}, c.cfg.Exec[1:]...)
	args = append(args,
		"-exp", "sweeps",
		"-parallel",
		"-seed", strconv.FormatUint(c.cfg.Seed, 10),
		"-profile", c.cfg.Profile.String(),
		"-cells", w.sel.String(),
		"-json", w.partPath,
	)
	if c.cfg.Quick {
		args = append(args, "-quick")
	}
	if c.cfg.Trials > 0 {
		args = append(args, "-trials", strconv.Itoa(c.cfg.Trials))
	}
	cmd := exec.CommandContext(ctx, c.cfg.Exec[0], args...)
	cmd.Dir = c.cfg.Dir
	// On cancellation forward SIGINT instead of the default SIGKILL so the
	// lebench worker can flush its partial artifact and exit cleanly; the
	// hard kill only lands if it overstays the drain window.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 10 * time.Second
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return harness.Artifact{}, fmt.Errorf("worker process: %w%s", err, outputTail(out.Bytes()))
	}
	art, err := harness.ReadArtifactFile(w.partPath)
	if err != nil {
		return harness.Artifact{}, fmt.Errorf("worker partial: %w", err)
	}
	return art, nil
}

// outputTail formats the last chunk of a crashed worker's combined output
// for the error message.
func outputTail(b []byte) string {
	const max = 2048
	if len(b) == 0 {
		return ""
	}
	if len(b) > max {
		b = b[len(b)-max:]
	}
	return "\nworker output (tail):\n" + string(b)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log == nil {
		return
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	fmt.Fprintf(c.cfg.Log, "lesweep: "+format+"\n", args...)
}

// forEach runs fn(0..n-1) over a bounded pool. Unlike the harness
// orchestrator's fail-fast pool, every task runs to completion — a
// worker's retry budget is its own concern — and the lowest-indexed
// error is returned.
func forEach(workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		mu       sync.Mutex
		next     int
		errIdx   = -1
		firstErr error
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
