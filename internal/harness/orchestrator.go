package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"anonlead"
	"anonlead/internal/obs"
	"anonlead/internal/spectral"
)

// CellSpec names one workload cell of an orchestrated sweep: a protocol, a
// topology cell, and the trial batch options (whose Seed is the sweep's
// root seed — per-trial seeds are split from it with TrialSeed).
type CellSpec struct {
	Protocol Protocol
	Workload Workload
	Opts     TrialOpts
}

// Orchestrator is the one cell runner: RunSweep fans workload cells and
// per-cell trials out over a bounded worker pool. Results do not depend on
// the pool size: trial seeds are pure functions of (root seed, cell, trial
// index), shards fill disjoint trial ranges, and each cell is reduced in
// trial-index order once its last shard lands. Every cell's trial batch is
// cut into one shard per worker. The zero value runs with GOMAXPROCS
// workers; Workers: 1 is the single-goroutine run.
type Orchestrator struct {
	// Workers is the pool size (0 = GOMAXPROCS).
	Workers int
	// OnCell, when non-nil, streams each aggregated Cell as soon as its
	// last shard completes, with i the index into the spec slice. Cells
	// complete in whatever order the pool finishes them; calls are
	// serialized under an internal lock.
	OnCell func(i int, c Cell)
}

// cellRun is the in-flight state of one spec during a sweep.
type cellRun struct {
	anw       *anonlead.Network
	prof      *spectral.Profile
	trials    []Trial
	remaining atomic.Int32
}

// workers returns the pool size a sweep actually runs with, resolving the
// zero-value default to GOMAXPROCS.
func (o Orchestrator) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// RunSweep executes every spec and returns the aggregated cells in spec
// order. On the first trial or build error the pool stops handing out new
// work, drains in-flight tasks, and returns the error of the lowest-indexed
// failed task.
func (o Orchestrator) RunSweep(specs []CellSpec) ([]Cell, error) {
	workers := o.workers()

	// Phase 1: build and profile every distinct workload graph in
	// parallel. Specs sharing the cell cache's key (workload, seed) —
	// different protocols on one cell, or a knowledge sweep's factors —
	// share a single build and spectral profile, the dominant setup cost
	// at larger n.
	order := make([]cellKey, 0, len(specs))
	groups := make(map[cellKey][]int, len(specs))
	for i, spec := range specs {
		k := cellKey{spec.Workload, spec.Opts.Seed}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	runs := make([]cellRun, len(specs))
	err := forEach(workers, len(order), func(j int) error {
		idxs := groups[order[j]]
		spec := specs[idxs[0]]
		anw, prof, err := prepareCell(spec.Workload, spec.Opts.Seed)
		if err != nil {
			return fmt.Errorf("spec %d: %w", idxs[0], err)
		}
		for _, i := range idxs {
			runs[i].anw, runs[i].prof = anw, prof
			runs[i].trials = make([]Trial, cellTrials(specs[i].Opts))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: cut every cell's trial batch into one shard per worker and
	// fan the shards of all cells out over one pool, so a big cell's trials
	// overlap with small cells instead of serializing behind them.
	type shard struct{ cell, lo, hi int }
	var work []shard
	for i := range runs {
		n := len(runs[i].trials)
		per := (n + workers - 1) / workers
		count := 0
		for lo := 0; lo < n; lo += per {
			hi := lo + per
			if hi > n {
				hi = n
			}
			work = append(work, shard{i, lo, hi})
			count++
		}
		runs[i].remaining.Store(int32(count))
	}
	cells := make([]Cell, len(specs))
	var cbMu sync.Mutex
	err = forEach(workers, len(work), func(s int) error {
		sh := work[s]
		spec := specs[sh.cell]
		run := &runs[sh.cell]
		endTrials := obs.Span("trials", cellLabel(spec.Workload))
		for t := sh.lo; t < sh.hi; t++ {
			trial, err := runOne(spec.Protocol, run.anw, run.prof, spec.Opts,
				TrialSeed(spec.Opts.Seed, spec.Workload, t))
			if err != nil {
				endTrials()
				return fmt.Errorf("spec %d (%s on %s/%d) trial %d: %w",
					sh.cell, spec.Protocol, spec.Workload.Family, spec.Workload.N, t, err)
			}
			run.trials[t] = trial
		}
		endTrials()
		if run.remaining.Add(-1) == 0 {
			endReduce := obs.Span("reduce", cellLabel(spec.Workload))
			cell := reduceCell(spec, run.prof, run.trials)
			endReduce()
			cells[sh.cell] = cell
			if o.OnCell != nil {
				cbMu.Lock()
				o.OnCell(sh.cell, cell)
				cbMu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// RunCell is RunSweep's one-spec, one-worker form.
func RunCell(p Protocol, w Workload, opts TrialOpts) (Cell, error) {
	cells, err := Orchestrator{Workers: 1}.RunSweep([]CellSpec{{Protocol: p, Workload: w, Opts: opts}})
	if err != nil {
		return Cell{}, err
	}
	return cells[0], nil
}

// forEach runs fn(0..n-1) over a pool of workers goroutines. On the first
// error the pool stops claiming new tasks and lets in-flight ones finish
// (clean shutdown, no goroutine leak); among the tasks that did fail, the
// lowest-indexed error is returned so reporting does not depend on
// goroutine scheduling.
func forEach(workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
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
