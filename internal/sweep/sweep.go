// Package sweep runs the artifact sweep across worker processes: a
// coordinator plans the canonical cell matrix (harness.SweepsPlan), cuts it
// into contiguous plan-index ranges, runs one `lebench -cells` subprocess
// of its own executable per range, collects their partial artifacts, and
// merges them with harness.MergeArtifacts into the one artifact a single
// process would have written. `lebench -exp sweeps -procs N` is the CLI.
//
// Determinism is the whole point: per-trial seeds are pure functions of
// the root seed and the cell, never of which worker runs it, so the
// merged artifact is byte-identical (after StripTimings) to a
// single-process sweep of the same seed. `make sweep-dist` and
// cmd/lebench's process-level test prove that over real subprocesses with
// a byte compare; TestDistributedByteIdentity proves the partition and
// merge for every worker count over an in-process fake.
//
// A crashed worker is rerun once before the sweep fails (a retried worker
// overlapping its crashed attempt is harmless: identical duplicate cells
// merge cleanly), and progress is logged and tracked per worker.
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

// retries is how many times a crashed worker is rerun before the sweep
// fails.
const retries = 1

// Config tunes a sweep coordinator.
type Config struct {
	// Workers is the number of worker processes the plan is cut across
	// (min 1; capped at the plan's cell count). They all run at once.
	Workers int

	// Sweep parameters, handed to every worker (they parameterize the
	// plan, so coordinator and workers must agree on all three).
	Quick  bool
	Trials int
	Seed   uint64
	// Profile pins the spectral profile regime of every cell (the lebench
	// -profile flag).
	Profile spectral.Mode

	// Log receives progress lines (nil = discarded).
	Log io.Writer
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// Coordinator shards one sweep plan across worker processes and merges
// the partial artifacts.
type Coordinator struct {
	cfg  Config
	plan harness.Plan

	// runWorker executes one worker's share and returns its partial
	// artifact: a lebench subprocess, unless a test swapped in a fake.
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
	partPath string // where the worker's partial artifact lands
}

// New builds a coordinator over an explicit plan (tests shard tiny
// hand-built plans; production callers use ForSweeps).
func New(cfg Config, plan harness.Plan) *Coordinator {
	c := &Coordinator{cfg: cfg, plan: plan}
	c.runWorker = c.runProcWorker
	return c
}

// ForSweeps builds a coordinator over the canonical artifact matrix for
// the config's quick/trials/seed parameters.
func ForSweeps(cfg Config) *Coordinator {
	return New(cfg, harness.SweepsPlan(cfg.Quick, cfg.Trials, cfg.Seed))
}

// Run executes the distributed sweep: partition, run every worker (each
// with its retry), merge. The returned artifact is the merged whole —
// deterministic content only, byte-identical to a single-process sweep of
// the same seed after StripTimings.
func (c *Coordinator) Run(ctx context.Context) (harness.Artifact, error) {
	total := c.plan.Len()
	if total == 0 {
		return harness.Artifact{}, fmt.Errorf("sweep: empty plan, nothing to distribute")
	}
	sels := harness.PartitionPlan(total, c.cfg.workers())

	workDir, err := os.MkdirTemp("", "lebench-partials-")
	if err != nil {
		return harness.Artifact{}, fmt.Errorf("sweep: %w", err)
	}
	defer os.RemoveAll(workDir)

	c.logf("plan: %d cells across %d worker processes (seed %d, quick=%v)",
		total, len(sels), c.cfg.Seed, c.cfg.Quick)

	tasks := make([]workerTask, len(sels))
	for i, sel := range sels {
		idxs, err := sel.Indices(total)
		if err != nil {
			return harness.Artifact{}, fmt.Errorf("sweep: %w", err)
		}
		tasks[i] = workerTask{
			id: i, sel: sel, indices: idxs,
			partPath: filepath.Join(workDir, fmt.Sprintf("partial-%d.json", i)),
		}
	}

	c.progMu.Lock()
	c.prog = newProgressState(total, tasks)
	c.progMu.Unlock()

	// Every worker runs to completion — its retry is its own concern — and
	// the lowest-indexed failure is the one reported.
	parts := make([]harness.Artifact, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.runWithRetry(ctx, tasks[i], &parts[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return harness.Artifact{}, err
		}
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
	for attempt := 0; attempt <= retries; attempt++ {
		if err := ctx.Err(); err != nil {
			c.prog.finish(w.id, 0, true)
			return fmt.Errorf("sweep: worker %d: %w", w.id, err)
		}
		if attempt == 0 {
			c.logf("worker %d/%d (cells %s): start", w.id+1, c.cfg.workers(), w.sel)
		} else {
			c.logf("worker %d/%d (cells %s): retry %d/%d after: %v",
				w.id+1, c.cfg.workers(), w.sel, attempt, retries, lastErr)
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
		w.id, w.sel, retries+1, lastErr)
}

// workerLabel is the span detail naming a worker's cell range; it formats
// nothing while telemetry is disabled.
func workerLabel(w workerTask) string {
	if !obs.Enabled() {
		return ""
	}
	return fmt.Sprintf("worker %d cells %s", w.id, w.sel)
}

// runProcWorker runs one worker as a subprocess of this executable —
// `lebench -exp sweeps -cells SEL -json PARTIAL` plus the sweep parameters
// — and reads back its partial artifact. Any failure — spawn error,
// non-zero exit, an unreadable artifact — counts as a worker crash and is
// retried by the caller.
func (c *Coordinator) runProcWorker(ctx context.Context, w workerTask) (harness.Artifact, error) {
	exe, err := os.Executable()
	if err != nil {
		return harness.Artifact{}, fmt.Errorf("worker process: %w", err)
	}
	args := []string{
		"-exp", "sweeps",
		"-seed", strconv.FormatUint(c.cfg.Seed, 10),
		"-profile", c.cfg.Profile.String(),
		"-cells", w.sel.String(),
		"-json", w.partPath,
	}
	if c.cfg.Quick {
		args = append(args, "-quick")
	}
	if c.cfg.Trials > 0 {
		args = append(args, "-trials", strconv.Itoa(c.cfg.Trials))
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	// A cancelled context kills the worker; WaitDelay keeps a wedged output
	// pipe from hanging Wait after that.
	cmd.WaitDelay = 10 * time.Second
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		return harness.Artifact{}, fmt.Errorf("worker process: %w", err)
	}
	c.logf("worker %d/%d: pid %d", w.id+1, c.cfg.workers(), cmd.Process.Pid)
	if err := cmd.Wait(); err != nil {
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
	fmt.Fprintf(c.cfg.Log, "lebench: "+format+"\n", args...)
}
