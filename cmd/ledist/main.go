// Command ledist runs one leader election as actual distributed nodes:
// every node of the topology is its own OS process, exchanging framed
// protocol messages over localhost TCP sockets, with the coordinator
// process enforcing CONGEST synchrony through a round barrier. The
// coordinator also replays the identical election on the in-memory
// simulator and writes a JSON artifact correlating wall-clock time per
// distributed round with the simulated round count — the evidence that
// the paper's round/bit accounting survives contact with real transport.
//
// Usage:
//
//	ledist -proto floodmax -graph cycle -n 16 -seed 1 -out dist_demo.json
//	ledist -proto ire -graph expander -n 16
//
// The same binary re-executes itself in node mode (-node) for the worker
// processes; that mode is internal plumbing, not a user entry point.
//
// ^C interrupts the election between rounds: the coordinator stops
// releasing rounds, tells every node to drain and close, still writes the
// artifact (marked interrupted), and exits nonzero for the partial
// election — mirroring cmd/leaderelect.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"anonlead"
	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/sim"
	"anonlead/internal/transport"
)

func main() {
	var (
		proto   = flag.String("proto", "floodmax", "protocol: "+strings.Join(core.Names(), ", "))
		family  = flag.String("graph", "cycle", "topology family: "+graph.FamilyHelp())
		n       = flag.Int("n", 16, "number of nodes = number of node processes")
		seed    = flag.Uint64("seed", 1, "root random seed (also derives the topology)")
		out     = flag.String("out", "", "write the wall-clock vs simulated-rounds artifact to this JSON file")
		timeout = flag.Duration("timeout", 2*time.Minute, "overall run deadline")
		nodeIdx = flag.Int("node", -1, "internal: run as node process with this index")
		coordTo = flag.String("coord", "", "internal: coordinator control address (node mode)")
	)
	flag.Parse()

	var err error
	if *nodeIdx >= 0 {
		err = nodeMain(*nodeIdx, *coordTo)
	} else {
		err = coordMain(*proto, *family, *n, *seed, *out, *timeout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledist:", err)
		os.Exit(1)
	}
}

// Control-plane message bodies. Reports ride the compact binary codec the
// barrier already defines; everything else is low-rate and goes as JSON.

type joinMsg struct {
	Node int    `json:"node"`
	Addr string `json:"addr"` // the node's data-plane listen address
}

type planMsg struct {
	Family string           `json:"family"`
	N      int              `json:"n"`
	Seed   uint64           `json:"seed"`
	Proto  string           `json:"proto"`
	PC     core.ProtoConfig `json:"pc"`
	Peers  []string         `json:"peers"` // data addresses by node index
}

// decodePlan parses a plan frame body and validates it for node.
func decodePlan(body []byte, node int) (planMsg, error) {
	var p planMsg
	if err := json.Unmarshal(body, &p); err != nil {
		return p, fmt.Errorf("plan: %w", err)
	}
	return p, p.validate(node)
}

// validate checks what a node indexes by before it builds anything from
// the plan: a node outside the graph or fewer peer addresses than nodes
// would otherwise panic mid-run.
func (p planMsg) validate(node int) error {
	switch {
	case node < 0 || node >= p.N:
		return fmt.Errorf("plan: node %d outside the %d-node graph", node, p.N)
	case len(p.Peers) != p.N:
		return fmt.Errorf("plan: %d peer addresses for %d nodes", len(p.Peers), p.N)
	}
	return nil
}

// outcomeMsg is a node's last word: its leadership claim.
type outcomeMsg struct {
	Node   int    `json:"node"`
	Leader bool   `json:"leader"`
	ID     uint64 `json:"id"`
}

// decodeOutcome parses the outcome frame body that node's control
// connection carried. Bad JSON, or an outcome naming another node, is an
// error: counting it as "no leader" would hide it.
func decodeOutcome(body []byte, node int) (outcomeMsg, error) {
	var o outcomeMsg
	if err := json.Unmarshal(body, &o); err != nil {
		return o, fmt.Errorf("outcome: %w", err)
	}
	if o.Node != node {
		return o, fmt.Errorf("outcome: names node %d", o.Node)
	}
	return o, nil
}

// ---------------------------------------------------------------------------
// Coordinator

type artifact struct {
	Proto       string  `json:"proto"`
	Family      string  `json:"family"`
	N           int     `json:"n"`
	Seed        uint64  `json:"seed"`
	CongestBits int     `json:"congest_bits"`
	Interrupted bool    `json:"interrupted,omitempty"`
	Error       string  `json:"error,omitempty"`
	Sim         *runRes `json:"sim,omitempty"`
	Dist        *runRes `json:"dist,omitempty"`
	// Match: the distributed run and the simulator agree on every cost
	// and outcome field (runRes.matches).
	Match *bool `json:"match,omitempty"`
}

type runRes struct {
	Rounds          int       `json:"rounds"`
	ChargedRounds   int64     `json:"charged_rounds"`
	Messages        int64     `json:"messages"`
	Bits            int64     `json:"bits"`
	Leaders         int       `json:"leaders"`
	LeaderID        uint64    `json:"leader_id"`
	ElapsedSeconds  float64   `json:"elapsed_seconds"`
	ConnectSeconds  float64   `json:"connect_seconds,omitempty"`
	SecondsPerRound float64   `json:"seconds_per_round,omitempty"`
	RoundSeconds    []float64 `json:"round_seconds,omitempty"`
}

// matches reports whether r and o describe the same election: rounds,
// CONGEST charge, messages, bits, leader count and leader ID. The
// wall-clock fields are not compared.
func (r runRes) matches(o runRes) bool {
	return r.Rounds == o.Rounds && r.ChargedRounds == o.ChargedRounds &&
		r.Messages == o.Messages && r.Bits == o.Bits &&
		r.Leaders == o.Leaders && r.LeaderID == o.LeaderID
}

// ctlMsg is one frame read off a node's control connection.
type ctlMsg struct {
	node int
	f    transport.Frame
	err  error
}

// nodeConn is the coordinator's handle on one node process.
type nodeConn struct {
	link transport.Link
	cmd  *exec.Cmd
}

// framePlane is the coordinator's end of the control plane over the node
// processes' control connections.
type framePlane struct {
	nodes []nodeConn
	msgs  <-chan ctlMsg
}

func (p framePlane) Release(round int, nodes, expect []int) error {
	for _, v := range nodes {
		f := transport.Frame{Type: transport.FrameStart, Round: round, Body: binary.AppendUvarint(nil, uint64(expect[v]))}
		if err := writeFrame(p.nodes[v].link, f); err != nil {
			return fmt.Errorf("start to node %d: %w", v, err)
		}
	}
	return nil
}

func (p framePlane) Next() (int, transport.Report, error) {
	m := <-p.msgs
	if m.err != nil {
		return m.node, transport.Report{}, m.err
	}
	if m.f.Type != transport.FrameReport {
		return m.node, transport.Report{}, fmt.Errorf("unexpected %v frame", m.f.Type)
	}
	r, err := transport.DecodeReport(m.f.Body)
	return m.node, r, err
}

func coordMain(proto, family string, n int, seed uint64, out string, timeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	nw, entry, pc, err := resolveRun(proto, family, n, seed)
	if err != nil {
		return err
	}
	g, err := graph.Seeded(family, n, seed)
	if err != nil {
		return err
	}
	runner, err := entry.Build(pc)
	if err != nil {
		return err
	}
	if runner.Budget <= 0 {
		return fmt.Errorf("protocol %s is open-ended (convergence-checked); ledist runs halting protocols", entry.Name)
	}
	// Some families round n (hypercube to a power of two): the artifact
	// describes the graph that was built.
	art := &artifact{Proto: entry.Name, Family: family, N: g.N(), Seed: seed}
	distErr := runDistributed(ctx, g, entry, pc, seed, runner.Budget, art)
	if distErr != nil {
		art.Error = distErr.Error()
	}
	if errors.Is(ctx.Err(), context.Canceled) || errors.Is(distErr, context.Canceled) {
		art.Interrupted = true
	}

	if art.Dist != nil {
		began := time.Now()
		outSim, err := nw.Run(context.Background(), proto,
			anonlead.WithSeed(seed), anonlead.WithProtoConfig(pc))
		if err != nil {
			return fmt.Errorf("simulator replay: %w", err)
		}
		art.Sim = &runRes{
			Rounds:         outSim.Rounds,
			ChargedRounds:  outSim.Metrics.ChargedRounds,
			Messages:       outSim.Metrics.Messages,
			Bits:           outSim.Metrics.Bits,
			Leaders:        len(outSim.Leaders),
			LeaderID:       outSim.LeaderID,
			ElapsedSeconds: time.Since(began).Seconds(),
		}
		if distErr == nil {
			m := art.Dist.matches(*art.Sim)
			art.Match = &m
		}
	}

	if out != "" {
		buf, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("artifact: %s\n", out)
	}
	printSummary(art)
	if distErr != nil {
		return distErr
	}
	if art.Match != nil && !*art.Match {
		return errors.New("distributed run diverged from the simulator")
	}
	if art.Dist != nil && art.Dist.Leaders != 1 {
		return fmt.Errorf("election not unique: %d leaders", art.Dist.Leaders)
	}
	return nil
}

// resolveRun resolves the protocol config once, coordinator-side, to ship
// it to every node: the processes must not profile independently. The
// network is NewNetwork(family, n, seed) — not a wrapper around an
// already-built graph, whose estimate-regime profile would sample from seed
// 0 — so above 256 nodes ledist elects on the same t_mix and Φ as
// leaderelect and Run do for the same (family, n, seed).
func resolveRun(proto, family string, n int, seed uint64) (nw *anonlead.Network, entry core.Entry, pc core.ProtoConfig, err error) {
	entry, ok := core.Lookup(proto)
	if !ok {
		return nil, entry, pc, fmt.Errorf("unknown protocol %q (registered: %s)", proto, strings.Join(core.Names(), ", "))
	}
	if nw, err = anonlead.NewNetwork(family, n, seed); err != nil {
		return nil, entry, pc, err
	}
	pc, err = nw.ProtoConfig(proto)
	return nw, entry, pc, err
}

// runDistributed spawns the node processes, runs the shared coordinator
// over their control connections, and fills art.Dist with whatever
// completed (even on interrupt or node failure). The slot budget is the
// coordinator ledger's default for g, recorded in art.CongestBits; every
// node derives the same one from the graph it rebuilds.
func runDistributed(ctx context.Context, g *graph.Graph, entry core.Entry, pc core.ProtoConfig, seed uint64, roundBudget int, art *artifact) error {
	n := g.N()
	nodes := make([]nodeConn, n)
	msgs := make(chan ctlMsg, n)
	coord := transport.NewCoordinator(g, framePlane{nodes: nodes, msgs: msgs}, nil)
	art.CongestBits = coord.Metrics().CongestBits
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	defer func() {
		for _, nc := range nodes {
			if nc.link != nil {
				nc.link.Close()
			}
		}
		for _, nc := range nodes {
			if nc.cmd != nil {
				nc.cmd.Wait()
			}
		}
	}()
	for v := 0; v < n; v++ {
		cmd := exec.CommandContext(ctx, exe, "-node", strconv.Itoa(v), "-coord", ln.Addr().String())
		cmd.Stderr = os.Stderr
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = 10 * time.Second
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn node %d: %w", v, err)
		}
		nodes[v].cmd = cmd
	}

	// Join phase: every node checks in with its data address.
	peers := make([]string, n)
	if dl, ok := ctx.Deadline(); ok {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(dl)
		}
	}
	for i := 0; i < n; i++ {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("waiting for node joins (%d/%d): %w", i, n, err)
		}
		l := transport.NewStreamLink(conn)
		f, err := l.ReadFrame()
		if err != nil || f.Type != transport.FrameJoin {
			conn.Close()
			return fmt.Errorf("bad join handshake: %v", err)
		}
		var j joinMsg
		if err := json.Unmarshal(f.Body, &j); err != nil || j.Node < 0 || j.Node >= n || nodes[j.Node].link != nil {
			conn.Close()
			return fmt.Errorf("invalid join %q", f.Body)
		}
		nodes[j.Node].link = l
		peers[j.Node] = j.Addr
	}

	// Plan phase: ship the resolved run description; the nodes wire their
	// data fabric among themselves and run the Init pseudo-round.
	plan := planMsg{Family: art.Family, N: n, Seed: seed, Proto: entry.Name, PC: pc, Peers: peers}
	planBody, err := json.Marshal(plan)
	if err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if err := writeFrame(nodes[v].link, transport.Frame{Type: transport.FramePlan, Body: planBody}); err != nil {
			return fmt.Errorf("plan to node %d: %w", v, err)
		}
	}

	for v := 0; v < n; v++ {
		go func(v int, l transport.Link) {
			for {
				f, err := l.ReadFrame()
				msgs <- ctlMsg{node: v, f: f, err: err}
				if err != nil {
					return
				}
			}
		}(v, nodes[v].link)
	}

	began := time.Now()
	if err := coord.Init(); err != nil {
		return err
	}
	res := &runRes{ConnectSeconds: time.Since(began).Seconds()}
	art.Dist = res
	runStart := time.Now()
	_, runErr := sim.RunLoop(ctx, roundBudget, func() (bool, error) {
		t0 := time.Now()
		more, err := coord.Step()
		if more && err == nil {
			res.RoundSeconds = append(res.RoundSeconds, time.Since(t0).Seconds())
		}
		return more, err
	}, nil)
	if runErr != nil && ctx.Err() == nil {
		return runErr // a node failed: there is nobody left to drain
	}
	res.ElapsedSeconds = time.Since(runStart).Seconds()

	// Stop phase: drain every node and collect its leadership claim.
	for v := 0; v < n; v++ {
		writeFrame(nodes[v].link, transport.Frame{Type: transport.FrameStop})
	}
	leaders := 0
	var leaderID uint64
	done := make([]bool, n)
	got := 0
	deadline := time.After(10 * time.Second)
	for got < n {
		select {
		case m := <-msgs:
			if done[m.node] {
				continue // EOF after the node's outcome already landed
			}
			if m.err != nil {
				// The node died without an outcome; that is its final word.
				done[m.node] = true
				got++
				continue
			}
			if m.f.Type != transport.FrameOutcome {
				continue
			}
			o, err := decodeOutcome(m.f.Body, m.node)
			if err != nil && runErr == nil {
				runErr = fmt.Errorf("node %d: %w", m.node, err)
			}
			if err == nil && o.Leader {
				leaders++
				leaderID = o.ID
			}
			done[m.node] = true
			got++
		case <-deadline:
			if runErr == nil {
				runErr = fmt.Errorf("timed out draining node outcomes (%d/%d)", got, n)
			}
			got = n
		}
	}

	m := coord.Metrics()
	res.Rounds = m.Rounds
	res.ChargedRounds = m.ChargedRounds
	res.Messages = m.Messages
	res.Bits = m.Bits
	res.Leaders = leaders
	res.LeaderID = leaderID
	if m.Rounds > 0 {
		res.SecondsPerRound = res.ElapsedSeconds / float64(m.Rounds)
	}
	if runErr == nil && !coord.AllHalted() {
		runErr = fmt.Errorf("election incomplete after %d rounds", m.Rounds)
	}
	return runErr
}

func writeFrame(l transport.Link, f transport.Frame) error {
	if err := l.WriteFrame(f); err != nil {
		return err
	}
	return l.Flush()
}

func printSummary(art *artifact) {
	if art.Dist == nil {
		return
	}
	d := art.Dist
	fmt.Printf("dist: %s on %s n=%d: rounds=%d charged=%d msgs=%d leaders=%d leader=%d\n",
		art.Proto, art.Family, art.N, d.Rounds, d.ChargedRounds, d.Messages, d.Leaders, d.LeaderID)
	fmt.Printf("wall: connect=%.3fs run=%.3fs (%.1fms/round over %d processes)\n",
		d.ConnectSeconds, d.ElapsedSeconds, d.SecondsPerRound*1000, art.N)
	if art.Sim != nil {
		fmt.Printf("sim:  rounds=%d charged=%d leader=%d in %.3fs\n",
			art.Sim.Rounds, art.Sim.ChargedRounds, art.Sim.LeaderID, art.Sim.ElapsedSeconds)
	}
	if art.Match != nil {
		fmt.Printf("match: %v\n", *art.Match)
	}
	if art.Interrupted {
		fmt.Println("interrupted: partial election")
	}
}

// ---------------------------------------------------------------------------
// Node process

// remoteControl is the node's end of the control plane over its
// coordinator connection. Used from the single driver goroutine only.
type remoteControl struct {
	link transport.Link
	buf  []byte
}

// errBadStart is the error for a start frame whose body is not exactly
// one uvarint frame count.
var errBadStart = errors.New("malformed start frame")

func (c *remoteControl) WaitStart() (int, int, bool, error) {
	f, err := c.link.ReadFrame()
	if err != nil {
		return 0, 0, false, err
	}
	switch f.Type {
	case transport.FrameStart:
		r := sim.NewWireReader(f.Body)
		expect := r.Uvarint()
		switch err := r.Err(); {
		case len(f.Body) == 0:
			return 0, 0, false, fmt.Errorf("%w: empty body", errBadStart)
		case errors.Is(err, sim.ErrWireTruncated):
			return 0, 0, false, fmt.Errorf("%w: truncated count", errBadStart)
		case err != nil || expect > math.MaxInt32:
			return 0, 0, false, fmt.Errorf("%w: over-long count in %d bytes", errBadStart, len(f.Body))
		}
		return f.Round, int(expect), false, nil
	case transport.FrameStop:
		return 0, 0, true, nil
	}
	return 0, 0, false, fmt.Errorf("unexpected %v frame from coordinator", f.Type)
}

func (c *remoteControl) Report(r transport.Report) error {
	c.buf = transport.AppendReport(c.buf[:0], r)
	return writeFrame(c.link, transport.Frame{Type: transport.FrameReport, Body: c.buf})
}

func nodeMain(v int, coord string) error {
	if coord == "" {
		return errors.New("node mode requires -coord")
	}
	// ^C reaches the whole process group; the node keeps draining under
	// the coordinator's direction but arms a deadline so it cannot outlive
	// a dead coordinator.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)

	conn, err := net.Dial("tcp", coord)
	if err != nil {
		return fmt.Errorf("node %d: dial coordinator: %w", v, err)
	}
	defer conn.Close()
	go func() {
		<-sigc
		conn.SetDeadline(time.Now().Add(15 * time.Second))
	}()
	ctl := transport.NewStreamLink(conn)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("node %d: data listen: %w", v, err)
	}
	defer ln.Close()

	body, err := json.Marshal(joinMsg{Node: v, Addr: ln.Addr().String()})
	if err != nil {
		return err
	}
	if err := writeFrame(ctl, transport.Frame{Type: transport.FrameJoin, Body: body}); err != nil {
		return fmt.Errorf("node %d: join: %w", v, err)
	}

	f, err := ctl.ReadFrame()
	if err != nil || f.Type != transport.FramePlan {
		return fmt.Errorf("node %d: waiting for plan: %v", v, err)
	}
	plan, err := decodePlan(f.Body, v)
	if err != nil {
		return fmt.Errorf("node %d: %w", v, err)
	}

	g, err := graph.Seeded(plan.Family, plan.N, plan.Seed)
	if err != nil {
		return fmt.Errorf("node %d: rebuild graph: %w", v, err)
	}
	if g.N() != plan.N {
		// Some families round n (hypercube to a power of two).
		return fmt.Errorf("node %d: plan: %s with n=%d builds %d nodes", v, plan.Family, plan.N, g.N())
	}
	entry, ok := core.Lookup(plan.Proto)
	if !ok {
		return fmt.Errorf("node %d: unknown protocol %q", v, plan.Proto)
	}
	runner, err := entry.Build(plan.PC)
	if err != nil {
		return fmt.Errorf("node %d: build: %w", v, err)
	}

	ctx := context.Background()
	links, err := transport.ConnectNode(ctx, g, v, plan.Seed, ln,
		func(w int) string { return plan.Peers[w] }, 30*time.Second)
	if err != nil {
		return fmt.Errorf("node %d: wire: %w", v, err)
	}
	defer func() {
		for _, l := range links {
			l.Close()
		}
	}()
	ln.Close()

	st := sim.NewStepper(plan.Seed, runner.Factory, v, g.Degree(v))
	if err := transport.RunNode(v, st, entry.Wire, links, sim.DefaultCongestBits(g.N()), &remoteControl{link: ctl}); err != nil {
		return fmt.Errorf("node %d: control: %w", v, err)
	}

	o := outcomeMsg{Node: v}
	if lr, ok := st.Machine().(sim.LeaderReporter); ok {
		o.Leader, o.ID = lr.LeaderInfo()
	}
	body, err = json.Marshal(o)
	if err != nil {
		return err
	}
	if err := writeFrame(ctl, transport.Frame{Type: transport.FrameOutcome, Body: body}); err != nil {
		return fmt.Errorf("node %d: outcome: %w", v, err)
	}
	return nil
}
