// Command bench is the repository's host-speed benchmark: how fast the code
// runs elections, end to end and layer by layer, where every other gate in
// the tree tracks the model's cost (messages, rounds). See README.md.
//
//	go run ./bench -workload ire-expander-256 -seed 1 -seconds 16 -trace 0
//	go run ./bench                  # every workload, both passes
//	go run ./bench -list            # the workloads and metrics
//	go run ./bench -repeat-check    # two sets of runs must agree
//
// One run measures one workload in one process. With -trace 0 it runs the
// untraced closed loop (one client: the next election starts when the
// previous one returns) and reports the end-to-end metrics; with -trace 1
// it runs the traced pass and reports the per-layer metrics. The last line
// of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"anonlead"
)

// errUnknownWorkload reports a -workload that names none.
var errUnknownWorkload = errors.New("unknown workload")

// newWorkload builds the named workload. The order and names are those of
// workloadSpecs.
func newWorkload(name string) (workload, error) {
	sim := anonlead.TransportSim
	switch name {
	case "ire-expander-256":
		return &cellWorkload{name: name, cell: cell{"expander", 256, anonlead.ProtoIRE, sim}, elections: 72, schedulers: true, pool: true}, nil
	case "floodmax-expander-100k":
		return &cellWorkload{name: name, cell: cell{"expander", 100_000, anonlead.ProtoFloodMax, sim}, elections: 6, schedulers: true}, nil
	case "revocable-complete-4":
		return &cellWorkload{name: name, cell: cell{"complete", 4, anonlead.ProtoRevocable, sim}, elections: 1}, nil
	case "wire-tcp-walknotify-expander-64":
		return &cellWorkload{name: name, cell: cell{"expander", 64, anonlead.ProtoWalkNotify, anonlead.TransportTCP}, elections: 1, tracedMore: 3}, nil
	case "sweep-gate":
		return &sweepWorkload{name: name}, nil
	}
	return nil, fmt.Errorf("bench: %w %q (see -list)", errUnknownWorkload, name)
}

// A run sets up at least minSetUps times and reports the median. A cheap
// set-up is repeated further, up to maxSetUps times, while the set-ups so far
// took less than setUpBudget together: a 0.25 s set-up is a short piece of a
// shared host's time, and three of those make a poor median.
const (
	minSetUps   = 3
	maxSetUps   = 7
	setUpBudget = 2.0 // seconds
)

// minPasses is how many times the closed loop runs its units at the least,
// so that every unit has a second execution to be compared with.
const minPasses = 2

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult packs values, which must hold exactly the metrics of specs.
func newResult(specs []metricSpec, values map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return r, fmt.Errorf("bench: metric %s was not measured", s.Name)
		}
		r.Metrics[s.Name] = metric{v, s.Unit}
	}
	if len(values) != len(specs) {
		return r, fmt.Errorf("bench: %d metrics measured, %d specified", len(values), len(specs))
	}
	return r, nil
}

// runUntraced sets the workload up and runs the closed loop for the given
// time: pass after pass over the workload's units, one client, the next
// election starting when the previous one returns. Every pass executes the
// same elections, and the end-to-end metrics are taken over each election's
// fastest execution. The host is shared: whole seconds run half as fast
// when a neighbour is busy, which a median over a run's elections follows
// and their fastest executions do not.
func runUntraced(name string, w workload, seed uint64, seconds time.Duration) (result, error) {
	// The timed loop runs on the first set-up, in the heap a fresh process
	// has; the repeats that make setup_s a median come after it. A network
	// built where two discarded ones left holes ran its elections up to 30%
	// slower (floodmax-expander-100k), a lottery the loop should not enter.
	var setupS []float64
	var setupSum float64
	setUp := func() error {
		start := time.Now()
		err := w.setUp(seed)
		setupS = append(setupS, time.Since(start).Seconds())
		setupSum += setupS[len(setupS)-1]
		return err
	}
	if err := setUp(); err != nil {
		return result{}, err
	}

	// Whole passes until minPasses are done, then unit by unit until the time
	// is up.
	best := make([]unit, w.units())
	attempted, failed, passes := 0, 0, 0
	start := time.Now()
	timeUp := func() bool { return passes >= minPasses && time.Since(start) >= seconds }
	for ; !timeUp(); passes++ {
		for i := 0; i < len(best) && !timeUp(); i++ {
			// Outside the timed region: every unit starts from a collected
			// heap, so it pays for its own garbage and not its predecessor's.
			runtime.GC()
			u, err := w.run(i)
			if err != nil {
				return result{}, err
			}
			attempted += u.elections()
			failed += u.failed
			switch {
			case passes == 0:
				best[i] = u
			case u.digest != best[i].digest:
				fmt.Fprintf(os.Stderr, "bench: %s unit %d: pass %d disagrees with pass 0\n", name, i, passes)
				failed += u.elections()
			default:
				best[i].keepFastest(u)
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	for len(setupS) < minSetUps || len(setupS) < maxSetUps && setupSum < setUpBudget {
		if err := setUp(); err != nil {
			return result{}, err
		}
	}

	var total unit
	var electionMS []float64
	var digest uint64
	elected := 0
	for _, u := range best {
		for _, p := range u.parts {
			if p.elections > 0 {
				electionMS = append(electionMS, ms(p.wall)/float64(p.elections))
			}
		}
		total.parts = append(total.parts, u.parts...)
		total.messages += u.messages
		total.rounds += u.rounds
		total.mallocs += u.mallocs
		total.bytes += u.bytes
		elected += u.elections() - u.failed
		digest = foldDigest(digest, u.digest)
	}
	wall, msgs := total.wall(), float64(total.messages)
	values := map[string]float64{
		"setup_s":            median(setupS),
		"elections_per_s":    float64(elected) / wall.Seconds(),
		"election_ms_p50":    median(electionMS),
		"ns_per_message":     float64(wall) / msgs,
		"us_per_round":       us(wall) / float64(total.rounds),
		"allocs_per_message": float64(total.mallocs) / msgs,
		"bytes_per_message":  float64(total.bytes) / msgs,
		"peak_rss_mb":        rss,
	}
	fmt.Printf("%s seed=%d untraced: %d units, %d elections executed (the last pass may be partial), %d failed, model_digest=%016x\n",
		name, seed, len(best), attempted, failed, digest)
	fmt.Printf("  samples: election_ms %d, each the fastest of up to %d executions", len(electionMS), passes)
	if label, v, ok := tailPercentile(electionMS); ok {
		fmt.Printf(" (%s %.3f ms)", label, v)
	}
	fmt.Printf(", setup_s %d\n", len(setupS))
	return newResult(endToEndSpecs, values, attempted, failed)
}

// traceDir is where the traced pass leaves its spans, one Chrome trace per
// workload, relative to the repository root the benchmark runs from.
const traceDir = "bench/out"

// runTraced runs the traced pass, writes its spans and returns the per-layer
// metrics.
func runTraced(name string, w workload, seed uint64, _ time.Duration) (result, error) {
	rec := newRecorder()
	t, err := w.traced(rec, seed)
	if err != nil {
		return result{}, err
	}
	path := fmt.Sprintf("%s/%s.trace.json", traceDir, name)
	meta := map[string]string{"workload": name, "seed": fmt.Sprint(seed), "model_digest": fmt.Sprintf("%016x", t.digest)}
	if err := rec.writeChrome(path, meta); err != nil {
		return result{}, err
	}
	fmt.Printf("%s seed=%d traced: %d elections, %d failed, %d spans in %s, model_digest=%016x\n",
		name, seed, t.attempted, t.failed, len(rec.spans), path, t.digest)
	return newResult(perLayerSpecs, t.metrics, t.attempted, t.failed)
}

// printResult prints every metric by name with its unit, then the JSON
// object on the last line.
func printResult(specs []metricSpec, r result) error {
	for _, s := range specs {
		fmt.Printf("  %-32s %16.6g %s\n", s.Name, r.Metrics[s.Name].Value, s.Unit)
	}
	buf, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("bench: encode result: %w", err)
	}
	fmt.Println(string(buf))
	return nil
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloadSpecs {
		fmt.Printf("  %-34s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (untraced pass):")
	for _, m := range endToEndSpecs {
		fmt.Printf("  %-32s %-6s better=%-6s bound=%g%%\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	fmt.Println("per-layer metrics (traced pass, no bound):")
	for _, m := range perLayerSpecs {
		fmt.Printf("  %-32s %-6s better=%s\n", m.Name, m.Unit, m.Better)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run in this process (default: every workload, each in its own process)")
	seed := flag.Uint64("seed", 1, "run seed; every input is derived from it")
	seconds := flag.Int("seconds", 16, "how long the closed loop measures (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	list := flag.Bool("list", false, "print the workloads and metrics and exit")
	repeatCheck := flag.Bool("repeat-check", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()

	switch {
	case *list:
		printList()
		return nil
	case *repeatCheck:
		return runRepeatCheck(*seed, *seconds)
	case *name == "":
		return runAll(*seed, *seconds)
	}
	w, err := newWorkload(*name)
	if err != nil {
		return err
	}
	specs, pass := endToEndSpecs, runUntraced
	if *trace != 0 {
		specs, pass = perLayerSpecs, runTraced
	}
	r, err := pass(*name, w, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		return err
	}
	if err := printResult(specs, r); err != nil {
		return err
	}
	if !r.Correct {
		return fmt.Errorf("bench: %s: %d of %d elections failed their check", *name, r.Failed, r.Attempted)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
