package sweep

import (
	"fmt"
	"sync"
	"time"

	"anonlead/internal/obs"
)

// WorkerProgress is the live view of one worker in a Progress snapshot.
type WorkerProgress struct {
	// State is pending, running, done or failed (a retrying worker is
	// running with Retries > 0).
	State string `json:"state"`
	// Cells is the number of plan cells assigned to the worker; DoneCells
	// stays 0 until the worker's partial artifact lands.
	Cells     int `json:"cells"`
	DoneCells int `json:"done_cells"`
	Retries   int `json:"retries"`
	// ElapsedSeconds is the wall time of the current attempt (frozen at
	// completion).
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	start time.Time
}

// Progress is the coordinator's live sweep view, served as JSON by the
// -debug-addr endpoint's /debug/progress.
type Progress struct {
	PlanCells   int `json:"plan_cells"`
	CellsDone   int `json:"cells_done"`
	WorkersDone int `json:"workers_done"`
	Retries     int `json:"retries"`
	// ElapsedSeconds is the sweep's wall time so far; ETASeconds estimates
	// the remaining time from cell throughput (0 until any cell lands).
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	ETASeconds     float64          `json:"eta_seconds"`
	Workers        []WorkerProgress `json:"workers"`
}

// progressState tracks per-worker sweep state. The coordinator updates it
// from worker goroutines; the debug endpoint reads it concurrently.
type progressState struct {
	mu        sync.Mutex
	start     time.Time
	planCells int
	workers   []WorkerProgress
	doneCells int
	retries   int
}

func newProgressState(planCells int, tasks []workerTask) *progressState {
	p := &progressState{
		start:     time.Now(),
		planCells: planCells,
		workers:   make([]WorkerProgress, len(tasks)),
	}
	for i, w := range tasks {
		p.workers[i] = WorkerProgress{State: "pending", Cells: len(w.indices)}
	}
	return p
}

func (p *progressState) startAttempt(id, attempt int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := &p.workers[id]
	w.State = "running"
	w.Retries = attempt
	w.start = time.Now()
	w.ElapsedSeconds = 0
	if attempt > 0 {
		p.retries++
	}
}

func (p *progressState) finish(id, cells int, failed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := &p.workers[id]
	w.ElapsedSeconds = time.Since(w.start).Seconds()
	if failed {
		w.State = "failed"
		return
	}
	w.State = "done"
	w.DoneCells = cells
	p.doneCells += cells
	p.publishLocked()
}

// publishLocked mirrors the sweep aggregates into the registry so
// /metrics shows them.
func (p *progressState) publishLocked() {
	if !obs.Enabled() {
		return
	}
	reg := obs.Default()
	reg.Gauge("anonlead_sweep_cells_done").Set(float64(p.doneCells))
	reg.Gauge("anonlead_sweep_eta_seconds").Set(p.etaLocked(p.doneCells))
	reg.Gauge("anonlead_sweep_retries").Set(float64(p.retries))
}

// etaLocked estimates remaining seconds from cell throughput so far.
func (p *progressState) etaLocked(done int) float64 {
	if done <= 0 {
		return 0
	}
	elapsed := time.Since(p.start).Seconds()
	return elapsed * float64(p.planCells-done) / float64(done)
}

// snapshot assembles the live Progress view.
func (p *progressState) snapshot() Progress {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := Progress{
		PlanCells:      p.planCells,
		CellsDone:      p.doneCells,
		Retries:        p.retries,
		ElapsedSeconds: time.Since(p.start).Seconds(),
		ETASeconds:     p.etaLocked(p.doneCells),
		Workers:        append([]WorkerProgress(nil), p.workers...),
	}
	for i := range out.Workers {
		w := &out.Workers[i]
		if w.State == "running" {
			w.ElapsedSeconds = time.Since(w.start).Seconds()
		}
		if w.State == "done" {
			out.WorkersDone++
		}
	}
	return out
}

// etaString renders an ETA for progress lines: "ETA 42s", or "ETA ?"
// before any cell has landed.
func etaString(eta float64, done int) string {
	if done <= 0 {
		return "ETA ?"
	}
	return fmt.Sprintf("ETA %.0fs", eta)
}

// Progress returns the coordinator's live sweep view (zero before Run
// starts). It is safe to call concurrently with Run — the -debug-addr
// endpoint polls it per request.
func (c *Coordinator) Progress() Progress {
	c.progMu.Lock()
	prog := c.prog
	c.progMu.Unlock()
	if prog == nil {
		return Progress{}
	}
	return prog.snapshot()
}
