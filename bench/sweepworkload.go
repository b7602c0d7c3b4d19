package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"anonlead/internal/harness"
	"anonlead/internal/report"
	"anonlead/internal/stats"
	"anonlead/internal/trajectory"
)

// ciSeed is the root seed of CI's gate sweep (lebench's default, the one
// testdata/BENCH_baseline.json records). The sweep workload runs CI's own
// inputs whatever the run seed: at two trials per cell another root seed
// moves the model cost of the few cells that dominate the sweep by a fifth,
// which would drown what the host-speed metrics are there to show.
const ciSeed = 1

// planSpecs is CI's quick gate sweep at the given trials per cell, without
// the revocable cells (their 54k-round trials would drown the other 75 cells;
// revocable-complete-4 covers that protocol) and without cells of more than
// maxN nodes.
func planSpecs(trials, maxN int) []harness.CellSpec {
	var specs []harness.CellSpec
	for _, s := range harness.SweepsPlan(true, trials, ciSeed).Specs() {
		if s.Protocol != harness.ProtoRevocable && s.Workload.N <= maxN {
			specs = append(specs, s)
		}
	}
	return specs
}

// gateSpecs is the sweep workload's plan: every cell, one trial each. At one
// trial a repeat takes 3 s, so a run repeats the sweep five times and not
// twice, and the fastest of five executions of a cell is what makes the
// median over cells hold still on a shared host (at CI's own two trials its
// quartiles over ten runs were 13% and 25% of the median apart).
func gateSpecs() []harness.CellSpec { return planSpecs(1, math.MaxInt) }

// censusSpecs is the small sweep on which a single-cell workload still
// measures the harness, artifact, diff and report layers: the gate cells of
// at most 33 nodes at one trial each, which keeps one loss ladder.
func censusSpecs() []harness.CellSpec { return planSpecs(1, 33) }

// faultFree reports whether every trial of the cell must elect exactly one
// leader: no adversary and the true network size.
func faultFree(s harness.CellSpec) bool {
	return (s.Opts.Adversary == nil || s.Opts.Adversary.IsZero()) && s.Opts.PresumedN == 0
}

// sweepTrace is one measured repeat of a sweep: RunSweep from a cold
// profile cache, then artifact encode, decode, self-diff and report.
type sweepTrace struct {
	specs    []harness.CellSpec
	cells    []harness.Cell
	cellWall []time.Duration // OnCell delta per cell, in spec order
	wall     time.Duration
	trials   int
	failed   int
	digest   uint64

	encode, decode, diff, markdown time.Duration
	hits, misses                   uint64
}

// traceSweep runs one repeat. rec may be nil (the untraced pass): the
// measurements are the same, only no span is kept.
func traceSweep(rec *recorder, specs []harness.CellSpec) (sweepTrace, error) {
	t := sweepTrace{specs: specs, cellWall: make([]time.Duration, len(specs))}
	timed := func(name string, fn func() error) (time.Duration, error) {
		start := time.Now()
		sp := -1
		if rec != nil {
			sp = rec.begin(name, 0)
		}
		err := fn()
		if rec != nil {
			rec.end(sp)
		}
		return time.Since(start), err
	}

	harness.ResetProfileCache()
	orch := harness.Orchestrator{Workers: 1}
	start := time.Now()
	last := start
	// With one worker and one shard per cell, cells complete in spec order
	// and the time between two completions is one cell's trials (the first
	// delta also holds the build and profile of every distinct graph).
	orch.OnCell = func(i int, _ harness.Cell) {
		now := time.Now()
		t.cellWall[i] = now.Sub(last)
		last = now
	}
	sweep, err := timed("harness.sweep", func() (err error) {
		t.cells, err = orch.RunSweep(specs)
		return err
	})
	if err != nil {
		return t, fmt.Errorf("bench: sweep: %w", err)
	}
	t.hits, t.misses = harness.ProfileCacheStats()

	var art, back harness.Artifact
	var buf []byte
	if t.encode, err = timed("harness.artifact_encode", func() (err error) {
		art = harness.NewArtifact(orch, specs, t.cells, sweep)
		buf, err = art.JSON()
		return err
	}); err != nil {
		return t, fmt.Errorf("bench: %w", err)
	}
	if t.decode, err = timed("harness.artifact_decode", func() (err error) {
		back, err = harness.ReadArtifact(buf)
		return err
	}); err != nil {
		return t, fmt.Errorf("bench: %w", err)
	}
	var rep trajectory.Report
	t.diff, _ = timed("trajectory.diff", func() error {
		rep = trajectory.Diff(back, art, trajectory.Thresholds{})
		return nil
	})
	var md string
	t.markdown, _ = timed("report.markdown", func() error {
		md = report.New(art, report.Options{}).Markdown()
		return nil
	})
	t.wall = time.Since(start)

	// Checks: the artifact survives its round trip, a sweep diffed against
	// itself changes nothing, the report rendered, and every trial of a
	// fault-free cell elected exactly one leader.
	again, err := back.JSON()
	switch {
	case err != nil:
		return t, fmt.Errorf("bench: %w", err)
	case len(t.cells) != len(specs):
		return t, fmt.Errorf("bench: sweep returned %d cells for %d specs", len(t.cells), len(specs))
	case !bytes.Equal(again, buf):
		return t, fmt.Errorf("bench: artifact changed in its JSON round trip")
	case rep.Improved+rep.Regressed+rep.Drifted+len(rep.Added)+len(rep.Removed) != 0:
		return t, fmt.Errorf("bench: a sweep diffed against itself reports changes")
	case md == "":
		return t, fmt.Errorf("bench: empty report")
	}
	h := fnv.New64a()
	for i, c := range t.cells {
		t.trials += c.Trials
		if faultFree(specs[i]) && c.Successes != c.Trials {
			fmt.Fprintf(os.Stderr, "bench: fault-free cell %d (%s on %s/%d): %d of %d trials elected one leader\n",
				i, c.Protocol, c.Workload.Family, c.Workload.N, c.Successes, c.Trials)
			t.failed += c.Trials - c.Successes
		}
		fmt.Fprintf(h, "%d|%v|%v|%v|%v|%v|", c.Successes, c.Messages, c.Bits, c.Rounds, c.Charged, c.Dropped)
	}
	t.digest = h.Sum64()
	return t, nil
}

// total sums a per-trial mean over every trial of the sweep (the means are
// of whole numbers, so rounding restores the exact count).
func (t sweepTrace) total(mean func(harness.Cell) float64) int64 {
	var sum int64
	for _, c := range t.cells {
		sum += int64(math.Round(mean(c) * float64(c.Trials)))
	}
	return sum
}

func (t sweepTrace) messages() int64 {
	return t.total(func(c harness.Cell) float64 { return c.Messages })
}

func (t sweepTrace) rounds() int64 {
	return t.total(func(c harness.Cell) float64 { return c.Rounds })
}

// figures adds the harness.*, trajectory.*, report.* and adversary.*
// metrics of the repeat to out.
func (t sweepTrace) figures(out map[string]float64) {
	// Cell 0's delta also holds every graph build and profile of the sweep,
	// so the per-cell figures leave it out.
	var cellMS []float64
	for _, d := range t.cellWall[1:] {
		cellMS = append(cellMS, ms(d))
	}
	out["harness.cell_ms_p50"] = median(cellMS)
	out["harness.cell_ms_max"] = stats.Quantile(cellMS, 1)
	out["harness.cache_hits"] = float64(t.hits)
	out["harness.cache_misses"] = float64(t.misses)
	out["harness.artifact_encode_ms"] = ms(t.encode)
	out["harness.artifact_decode_ms"] = ms(t.decode)
	out["trajectory.diff_ms"] = ms(t.diff)
	out["report.markdown_ms"] = ms(t.markdown)
	out["adversary.dropped"] = float64(t.total(func(c harness.Cell) float64 { return c.Dropped }))

	// Each loss rung's wall per trial over that of its ladder's fault-free
	// anchor, which is the zero-adversary cell opening the ladder.
	var ratios []float64
	anchor := -1
	for i, s := range t.specs {
		switch adv := s.Opts.Adversary; {
		case adv == nil:
			anchor = -1
		case adv.IsZero():
			anchor = i
		case adv.Loss > 0 && anchor >= 0:
			ratios = append(ratios, ratio(float64(t.cellWall[i]), float64(t.cellWall[anchor]))) // same trial count
		}
	}
	out["adversary.faulted_vs_clean"] = median(ratios)
}

// sweepWorkload repeats the gate sweep from a cold cache.
type sweepWorkload struct {
	name  string
	specs []harness.CellSpec
}

// setUp plans the sweep and, as the warm-up, runs its first section (IRE on
// four expanders, exact profile of each) once.
func (w *sweepWorkload) setUp(uint64) error {
	w.specs = gateSpecs()
	_, err := traceSweep(nil, w.specs[:4])
	return err
}

func (w *sweepWorkload) units() int { return 1 }

// run is one repeat: a part per cell, then the artifact tail.
func (w *sweepWorkload) run(int) (unit, error) {
	before := readAllocs()
	t, err := traceSweep(nil, w.specs)
	if err != nil {
		return unit{}, err
	}
	u := unit{failed: t.failed, messages: t.messages(), rounds: t.rounds(), digest: t.digest}
	u.mallocs, u.bytes = before.since()
	for i, c := range t.cells {
		u.parts = append(u.parts, part{t.cellWall[i], c.Trials})
	}
	u.parts = append(u.parts, part{wall: t.encode + t.decode + t.diff + t.markdown})
	return u, nil
}

// traced runs the sweep once as the untraced pass does and once under
// spans, which must agree; times graph build, validation and profile of
// every distinct graph directly; and traces one election of every plain
// cell layer by layer for the core.* and sim.* figures.
func (w *sweepWorkload) traced(rec *recorder, seed uint64) (tracedResult, error) {
	out := make(map[string]float64)
	specs := gateSpecs()

	var ly layers
	done := make(map[cell]bool)
	preps := make(map[harness.Workload]prepared)
	elections, failed := 0, 0
	for _, s := range specs {
		c := cell{family: s.Workload.Family, n: s.Workload.N, proto: string(s.Protocol)}
		p, ok := preps[s.Workload]
		if !ok {
			var err error
			if p, err = prepare(rec, c, ciSeed, out); err != nil {
				return tracedResult{}, err
			}
			preps[s.Workload] = p
		}
		if !faultFree(s) || done[c] {
			continue
		}
		done[c] = true
		e, err := runLayered(rec, &ly, p.g, p.prof, c, harness.TrialSeed(ciSeed, s.Workload, 0), elections)
		if err != nil {
			return tracedResult{}, err
		}
		elections++
		if e.checkErr != nil {
			fmt.Fprintf(os.Stderr, "bench: sweep-gate traced %v failed: %v\n", c, e.checkErr)
			failed++
		}
	}
	coreSimFigures(ly, out)
	out["core.step_calls"] = float64(ly.stepCalls)
	out["sim.workerpool_vs_sequential"], out["sim.actors_vs_sequential"] = 0, 0

	ref, err := traceSweep(nil, specs)
	if err != nil {
		return tracedResult{}, err
	}
	t, err := traceSweep(rec, specs)
	if err != nil {
		return tracedResult{}, err
	}
	if t.digest != ref.digest {
		fmt.Fprintf(os.Stderr, "bench: sweep-gate traced repeat disagrees with the untraced one\n")
		failed += t.trials
	}
	t.figures(out)
	out["congest.messages"] = float64(t.messages())
	out["congest.bits"] = float64(t.total(func(c harness.Cell) float64 { return c.Bits }))
	out["congest.rounds"] = float64(t.rounds())
	out["congest.charged_rounds"] = float64(t.total(func(c harness.Cell) float64 { return c.Charged }))
	out["congest.charged_per_round"] = ratio(out["congest.charged_rounds"], out["congest.rounds"])
	out["congest.max_link_slots"] = 0 // the harness does not aggregate it
	out["bench.trace_overhead"] = ratio(float64(t.wall), float64(ref.wall))
	out["bench.traced_elections"] = float64(t.trials)

	ct, err := traceTransportCensus(rec, w.name, seed, out)
	if err != nil {
		return tracedResult{}, err
	}
	return tracedResult{
		metrics:   out,
		attempted: elections + ref.trials + t.trials + ct.attempted,
		failed:    failed + ref.failed + t.failed + ct.failed,
		digest:    foldDigest(0, t.digest),
	}, nil
}
