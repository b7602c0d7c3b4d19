package main

import (
	"fmt"
	"os"
	"time"

	"anonlead"
	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/stats"
	"anonlead/internal/transport"
)

// part is one timed piece of a unit: an election, a sweep cell's trials, or
// (elections 0) work outside any election, such as the sweep's artifact tail.
type part struct {
	wall      time.Duration
	elections int
}

// unit is one step of the closed loop: one election, or on the sweep
// workload one repeat of the whole plan (whose trials are its elections).
type unit struct {
	parts    []part
	failed   int
	messages int64
	rounds   int64
	mallocs  uint64
	bytes    uint64
	digest   uint64
}

func (u unit) wall() (d time.Duration) {
	for _, p := range u.parts {
		d += p.wall
	}
	return d
}

func (u unit) elections() (n int) {
	for _, p := range u.parts {
		n += p.elections
	}
	return n
}

// keepFastest folds v, another execution of the same unit, into u: every
// part keeps its fastest wall and the allocation counts their lowest. The
// two executed the same work (the caller compares their digests), and what
// other tenants of the host do can only add to either.
func (u *unit) keepFastest(v unit) {
	for i := range u.parts {
		u.parts[i].wall = min(u.parts[i].wall, v.parts[i].wall)
	}
	u.mallocs = min(u.mallocs, v.mallocs)
	u.bytes = min(u.bytes, v.bytes)
	u.failed = max(u.failed, v.failed)
}

// workload is one named set of inputs. setUp is called several times
// (set-up time is reported as a median); each call replaces the state the
// one before built.
type workload interface {
	// setUp builds the inputs from the seed and runs one warm-up unit.
	setUp(seed uint64) error
	// units is how many units one pass of the closed loop runs. They are a
	// function of the seed alone, and so are the model digest and the exact
	// counts taken over them.
	units() int
	// run executes unit i of the untraced closed loop and checks it.
	run(i int) (unit, error)
	// traced runs the traced pass, one pass over the same units, and
	// returns every per-layer metric.
	traced(rec *recorder, seed uint64) (tracedResult, error)
}

// tracedResult is what a traced pass reports besides its spans.
type tracedResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	digest    uint64 // model digest over the pass's units
}

// topologySeed draws every single-cell workload's graph. The topology is
// part of the workload's definition: its mixing time and diameter set the
// round budget, so a graph drawn from the run seed would move every figure
// by what the draw happened to be (254 to 288 rounds on the 64-node
// expander), not by how fast the code is. The run seed drives the elections.
const topologySeed = 1

// cellWorkload runs one cell's elections back to back.
type cellWorkload struct {
	name      string
	cell      cell
	elections int // units
	// tracedMore is how many further elections the traced pass runs for its
	// timings alone (a round percentile needs a thousand rounds); the digest
	// and the exact counts stay those of the units.
	tracedMore int
	// schedulers asks the traced pass to compare the other two schedulers
	// against the default one on this cell.
	schedulers bool
	// pool draws the workload's elections, warm-up included, from poolSeed
	// instead of the run seed. It is for a protocol whose cost depends on the
	// draw: an IRE election on the 256-node expander sends 3k to 85k messages
	// with its number of candidates, and the median wall of 72 elections drawn
	// afresh moved by a quarter between run seeds (58 to 73 ms over seeds 1 to
	// 8 while ns_per_message held within 3%), which measures the draw, not the
	// code. The run seed still draws the traced pass's census elections.
	pool bool
	opts []anonlead.Option

	seed uint64
	nw   *anonlead.Network
}

// warmUpIndex is the election index of the warm-up; timed elections count
// up from 0.
const warmUpIndex = -1

// poolSeed draws the elections of a workload with a fixed pool.
const poolSeed = 1

// electionsSeed is the seed the workload's elections are derived from.
func (w *cellWorkload) electionsSeed(runSeed uint64) uint64 {
	if w.pool {
		return poolSeed
	}
	return runSeed
}

func (w *cellWorkload) setUp(seed uint64) error {
	nw, err := anonlead.NewNetwork(w.cell.family, w.cell.n, topologySeed)
	if err != nil {
		return fmt.Errorf("bench: %s: %w", w.name, err)
	}
	if _, err := nw.Profile(anonlead.ProfileAuto); err != nil {
		return fmt.Errorf("bench: %s: %w", w.name, err)
	}
	w.seed, w.nw = w.electionsSeed(seed), nw
	if e := runPublic(nw, w.cell, electionSeed(w.name, w.seed, warmUpIndex), w.opts...); e.checkErr != nil {
		return fmt.Errorf("bench: %s warm-up: %w", w.name, e.checkErr)
	}
	return nil
}

func (w *cellWorkload) units() int { return w.elections }

// simCell is the simulator twin of a real-transport cell.
func (c cell) simCell() cell {
	c.transport = anonlead.TransportSim
	return c
}

func (w *cellWorkload) run(i int) (unit, error) {
	seed := electionSeed(w.name, w.seed, i)
	e := runPublic(w.nw, w.cell, seed, w.opts...)
	if e.checkErr == nil && w.cell.transport != anonlead.TransportSim {
		// Outside the timed region: the simulator replay of the same seed
		// must elect the same leader at the same model cost.
		if replay := runPublic(w.nw, w.cell.simCell(), seed); replay.digest() != e.digest() {
			e.checkErr = fmt.Errorf("wire run disagrees with its simulator replay")
		}
	}
	u := unit{
		parts: []part{{e.wall, 1}}, messages: e.metrics.Messages, rounds: int64(e.metrics.Rounds),
		mallocs: e.mallocs, bytes: e.bytes, digest: e.digest(),
	}
	if e.checkErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s election %d failed: %v\n", w.name, i, e.checkErr)
		u.failed = 1
	}
	return u, nil
}

// cellTrace is the outcome of tracing one cell's elections.
type cellTrace struct {
	sim, wire  layers        // wire stays empty on a simulator cell
	pairs      int           // untraced/traced pairs run on the cell's own backend
	refWall    time.Duration // Σ untraced wall on the cell's own backend
	tracedWall time.Duration // Σ traced wall on the cell's own backend
	simRefWall time.Duration // Σ untraced simulator replay wall (wire cells)
	attempted  int
	failed     int
	digest     uint64
	model      anonlead.Metrics // the exact counts, summed
}

// traceCell runs the cell's first units+more elections in pairs: untraced
// through the public API, then traced layer by layer. Each pair must agree
// on the digest; a real-transport cell is also replayed on the simulator,
// both ways. The model digest and counts are those of the first units
// elections.
func traceCell(rec *recorder, name string, c cell, p prepared, seed uint64, units, more int) (cellTrace, error) {
	var t cellTrace
	nw, g, prof := p.nw, p.g, p.prof
	for i := 0; i < units+more; i++ {
		s := electionSeed(name, seed, i)
		ref := runPublic(nw, c, s)
		ly := &t.sim
		if c.transport != anonlead.TransportSim {
			ly = &t.wire
		}
		tr, err := runLayered(rec, ly, g, prof, c, s, i)
		if err != nil {
			return t, err
		}
		want := ref.digest()
		checkErr := ref.checkErr
		if checkErr == nil && tr.digest() != want {
			checkErr = fmt.Errorf("traced election disagrees with the untraced one")
		}
		if c.transport != anonlead.TransportSim {
			simRef := runPublic(nw, c.simCell(), s)
			simTr, err := runLayered(rec, &t.sim, g, prof, c.simCell(), s, i)
			if err != nil {
				return t, err
			}
			if checkErr == nil && (simRef.digest() != want || simTr.digest() != want) {
				checkErr = fmt.Errorf("wire run disagrees with its simulator replay")
			}
			t.simRefWall += simRef.wall
		}
		t.attempted++
		if checkErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s traced election %d failed: %v\n", name, i, checkErr)
			t.failed++
		}
		t.pairs++
		t.refWall += ref.wall
		t.tracedWall += tr.wall
		if i >= units {
			continue
		}
		t.digest = foldDigest(t.digest, want)
		m := ref.metrics
		t.model.Messages += m.Messages
		t.model.Bits += m.Bits
		t.model.Rounds += m.Rounds
		t.model.ChargedRounds += m.ChargedRounds
		t.model.MaxLinkSlots = max(t.model.MaxLinkSlots, m.MaxLinkSlots)
	}
	return t, nil
}

// coreSimFigures turns the traced simulator elections into the core.* and
// sim.* metrics.
func coreSimFigures(ly layers, out map[string]float64) {
	wall := float64(ly.wall)
	msgs := float64(ly.messages)
	// The run loop's self time: its wall minus the machine Steps and the
	// Converged polls inside it, which the spans carry as children.
	runSelf := float64(ly.runSelf)
	out["core.build_us"] = median(ly.buildUS)
	out["core.step_calls"] = float64(ly.stepCalls)
	out["core.step_ns_per_message"] = ratio(float64(ly.stepBusy), msgs)
	out["core.step_share"] = ratio(float64(ly.stepBusy), wall)
	out["core.collect_us"] = median(ly.collectUS)
	out["core.converged_share"] = ratio(float64(ly.converged), wall)
	out["sim.new_ms"] = median(ly.newMS)
	out["sim.new_mb"] = median(ly.newMB)
	out["sim.new_allocs"] = median(ly.newAlloc)
	out["sim.round_self_ns_p50"] = median(ly.roundSelfNS)
	out["sim.self_ns_per_message"] = ratio(runSelf, msgs)
	out["sim.self_share"] = ratio(runSelf, wall)
	out["sim.run_allocs_per_round"] = ratio(float64(ly.runAllocs), float64(ly.rounds))
}

// transportFigures turns traced TCP elections, plus the round medians of
// the channel and pipe backends, into the transport.* metrics.
func transportFigures(tcp cellTrace, chanRoundUS, pipeRoundUS []float64, codec sim.WireCodec, out map[string]float64) error {
	ly := tcp.wire
	out["transport.connect_ms"] = median(ly.connectMS)
	out["transport.close_ms"] = median(ly.closeMS)
	out["transport.round_us_p50"] = median(ly.roundUS)
	if !reportable(ly.roundUS, 0.99) {
		return fmt.Errorf("bench: %d traced rounds are too few for a 99th percentile", len(ly.roundUS))
	}
	out["transport.round_us_p99"] = stats.Quantile(ly.roundUS, 0.99)
	out["transport.allocs_per_round"] = ratio(float64(ly.wireRunAllocs), float64(len(ly.roundUS)))
	out["transport.wire_vs_sim"] = ratio(float64(tcp.refWall), float64(tcp.simRefWall))
	out["transport.chan_round_us_p50"] = median(chanRoundUS)
	out["transport.pipe_round_us_p50"] = median(pipeRoundUS)
	enc, dec, err := frameCodecNS(ly.payloads, codec)
	if err != nil {
		return err
	}
	out["transport.frame_encode_ns"], out["transport.frame_decode_ns"] = enc, dec
	return nil
}

// frameCodecNS times AppendFrame and DecodeFrame over data frames whose
// bodies are the sampled payloads, per frame.
func frameCodecNS(payloads []sim.Payload, codec sim.WireCodec) (encode, decode float64, err error) {
	if len(payloads) == 0 {
		return 0, 0, fmt.Errorf("bench: no payload was sampled for the frame codec")
	}
	frames := make([]transport.Frame, len(payloads))
	for i, p := range payloads {
		body, err := codec.AppendPayload(nil, p)
		if err != nil {
			return 0, 0, fmt.Errorf("bench: encode payload: %w", err)
		}
		frames[i] = transport.Frame{Type: transport.FrameData, Round: i, Channel: uint32(i % 7), Body: body}
	}
	const passes = 200
	var buf []byte
	start := time.Now()
	for pass := 0; pass < passes; pass++ {
		buf = buf[:0]
		for _, f := range frames {
			if buf, err = transport.AppendFrame(buf, f); err != nil {
				return 0, 0, fmt.Errorf("bench: encode frame: %w", err)
			}
		}
	}
	encode = float64(time.Since(start)) / float64(passes*len(frames))
	start = time.Now()
	for pass := 0; pass < passes; pass++ {
		for rest := buf; len(rest) > 0; {
			_, n, err := transport.DecodeFrame(rest)
			if err != nil {
				return 0, 0, fmt.Errorf("bench: decode frame: %w", err)
			}
			rest = rest[n:]
		}
	}
	decode = float64(time.Since(start)) / float64(passes*len(frames))
	return encode, decode, nil
}

// censusCell is the small real-transport cell on which a workload that
// never leaves the simulator still measures the transport layer, so that
// every traced run reports every layer.
var censusCell = cell{family: "cycle", n: 16, proto: anonlead.ProtoWalkNotify, transport: anonlead.TransportTCP}

// censusElections is enough elections for a thousand rounds on censusCell.
const censusElections = 3

// prepared is a cell's set-up, built layer by layer under spans.
type prepared struct {
	nw   *anonlead.Network
	g    *graph.Graph
	prof profiled
}

// prepare builds the cell's network the way NewNetwork does, timing graph
// construction, validation and the spectral profile, and adds the timings
// to out.
func prepare(rec *recorder, c cell, graphSeed uint64, out map[string]float64) (prepared, error) {
	top := rec.begin("setup", warmUpIndex)
	defer rec.end(top)

	sp := rec.begin("graph.build", warmUpIndex)
	g, err := graph.ByName(c.family, c.n, rng.New(graphSeed).SplitString("graph:"+c.family))
	out["graph.build_ms"] += ms(rec.end(sp))
	if err != nil {
		return prepared{}, fmt.Errorf("bench: %w", err)
	}
	sp = rec.begin("graph.validate", warmUpIndex)
	_, err = anonlead.NewNetworkFromGraph(g)
	out["graph.validate_ms"] += ms(rec.end(sp))
	if err != nil {
		return prepared{}, fmt.Errorf("bench: %w", err)
	}
	// The network elections run on comes from NewNetwork, which also hands
	// the seed to the estimate-regime profile; its graph equals g.
	nw, err := anonlead.NewNetwork(c.family, c.n, graphSeed)
	if err != nil {
		return prepared{}, fmt.Errorf("bench: %w", err)
	}
	sp = rec.begin("spectral.profile", warmUpIndex)
	before := readAllocs()
	prof, err := nw.Profile(anonlead.ProfileAuto)
	_, bytes := before.since()
	out["spectral.profile_ms"] += ms(rec.end(sp))
	out["spectral.profile_mb"] += float64(bytes) / (1 << 20)
	if err != nil {
		return prepared{}, fmt.Errorf("bench: %w", err)
	}
	return prepared{nw, g, profiled{prof.MixingTime, prof.Conductance, prof.Diameter}}, nil
}

// traceTransport measures the transport layer on cell c (a TCP cell): the
// traced TCP elections, a few on the channel and pipe backends, the codec.
func traceTransport(rec *recorder, name string, c cell, p prepared, seed uint64, units, more int, out map[string]float64) (cellTrace, error) {
	tcp, err := traceCell(rec, name, c, p, seed, units, more)
	if err != nil {
		return tcp, err
	}
	var rounds [2][]float64
	for i, tr := range []anonlead.Transport{anonlead.TransportChan, anonlead.TransportPipe} {
		other := c
		other.transport = tr
		t, err := traceCell(rec, name, other, p, seed, censusElections, 0)
		if err != nil {
			return tcp, err
		}
		tcp.attempted += t.attempted
		tcp.failed += t.failed
		rounds[i] = t.wire.roundUS
	}
	entry, _ := core.Lookup(c.proto)
	return tcp, transportFigures(tcp, rounds[0], rounds[1], entry.Wire, out)
}

// traceTransportCensus measures the transport layer on the census cell, for
// a workload that never enters it.
func traceTransportCensus(rec *recorder, name string, seed uint64, out map[string]float64) (cellTrace, error) {
	p, err := prepare(rec, censusCell, topologySeed, map[string]float64{})
	if err != nil {
		return cellTrace{}, err
	}
	return traceTransport(rec, name+"/census", censusCell, p, seed, censusElections, 0, out)
}

func (w *cellWorkload) traced(rec *recorder, seed uint64) (tracedResult, error) {
	out := make(map[string]float64)
	p, err := prepare(rec, w.cell, topologySeed, out)
	if err != nil {
		return tracedResult{}, err
	}
	drawn := w.electionsSeed(seed)
	if e := runPublic(p.nw, w.cell, electionSeed(w.name, drawn, warmUpIndex)); e.checkErr != nil {
		return tracedResult{}, fmt.Errorf("bench: %s warm-up: %w", w.name, e.checkErr)
	}

	var t cellTrace
	if w.cell.transport == anonlead.TransportSim {
		if t, err = traceCell(rec, w.name, w.cell, p, drawn, w.elections, w.tracedMore); err != nil {
			return tracedResult{}, err
		}
		// This workload never enters the transport layer.
		ct, err := traceTransportCensus(rec, w.name, seed, out)
		if err != nil {
			return tracedResult{}, err
		}
		t.attempted += ct.attempted
		t.failed += ct.failed
	} else if t, err = traceTransport(rec, w.name, w.cell, p, drawn, w.elections, w.tracedMore, out); err != nil {
		return tracedResult{}, err
	}
	coreSimFigures(t.sim, out)

	out["sim.workerpool_vs_sequential"], out["sim.actors_vs_sequential"] = 0, 0
	if w.schedulers {
		for _, s := range []anonlead.Scheduler{anonlead.WorkerPool, anonlead.Actors} {
			r, failed := w.schedulerRatio(p.nw, drawn, s)
			out["sim."+s.String()+"_vs_sequential"] = r
			t.attempted += schedulerElections
			t.failed += failed
		}
	}

	out["congest.messages"] = float64(t.model.Messages)
	out["congest.bits"] = float64(t.model.Bits)
	out["congest.rounds"] = float64(t.model.Rounds)
	out["congest.charged_rounds"] = float64(t.model.ChargedRounds)
	out["congest.charged_per_round"] = ratio(float64(t.model.ChargedRounds), float64(t.model.Rounds))
	out["congest.max_link_slots"] = float64(t.model.MaxLinkSlots)
	out["bench.trace_overhead"] = ratio(float64(t.tracedWall), float64(t.refWall))
	out["bench.traced_elections"] = float64(t.pairs)

	// This workload never enters the harness either: a small sweep stands in.
	st, err := traceSweep(rec, censusSpecs())
	if err != nil {
		return tracedResult{}, err
	}
	st.figures(out)
	return tracedResult{metrics: out, attempted: t.attempted + st.trials, failed: t.failed + st.failed, digest: t.digest}, nil
}

// schedulerElections is the handful of elections a scheduler comparison
// runs.
const schedulerElections = 3

// schedulerRatio runs the first few elections under scheduler s and under
// the default one, and returns the ratio of their median walls. The leaders
// and model counts must not depend on the scheduler.
func (w *cellWorkload) schedulerRatio(nw *anonlead.Network, seed uint64, s anonlead.Scheduler) (r float64, failed int) {
	var walls, refs []float64
	for i := 0; i < schedulerElections; i++ {
		e := runPublic(nw, w.cell, electionSeed(w.name, seed, i), anonlead.WithScheduler(s))
		ref := runPublic(nw, w.cell, electionSeed(w.name, seed, i))
		if e.checkErr != nil || e.digest() != ref.digest() {
			fmt.Fprintf(os.Stderr, "bench: %s election %d under %s disagrees with the default scheduler\n", w.name, i, s)
			failed++
		}
		walls, refs = append(walls, ms(e.wall)), append(refs, ms(ref.wall))
	}
	return ratio(median(walls), median(refs)), failed
}
