package transport_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/transport"
)

// scriptedPlane is a control plane whose nodes answer from a script. Once
// the script runs out Next blocks for good, like a node that went silent:
// a coordinator that kept gathering after a failure would hang on it. It
// records every release, by round.
type scriptedPlane struct {
	script   []scripted
	releases map[int][]int
}

type scripted struct {
	node int
	rep  transport.Report
	err  error
}

func (p *scriptedPlane) Release(round int, nodes, _ []int) error {
	if p.releases == nil {
		p.releases = map[int][]int{}
	}
	p.releases[round] = append([]int(nil), nodes...)
	return nil
}

func (p *scriptedPlane) Next() (int, transport.Report, error) {
	if len(p.script) == 0 {
		select {}
	}
	s := p.script[0]
	p.script = p.script[1:]
	return s.node, s.rep, s.err
}

// within fails the test if f has not returned after a generous deadline.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// TestCoordinatorFailureNamesNode drives the coordinator the Cluster and
// cmd/ledist share over fake control planes: whatever a node does wrong,
// the run ends at once with an error naming it, in the Init pseudo-round
// and in a released round alike.
func TestCoordinatorFailureNamesNode(t *testing.T) {
	ok := func(v int) scripted { return scripted{node: v, rep: transport.Report{Node: v}} }
	cases := []struct {
		name string
		bad  scripted
		want string
		is   error
	}{
		{"fail report", scripted{node: 1, rep: transport.Report{Node: 1, Fail: "port 0: boom"}}, "node 1: port 0: boom", nil},
		{"control-plane EOF", scripted{node: 1, err: io.EOF}, "node 1: control plane", io.EOF},
		{"misattributed report", scripted{node: 1, rep: transport.Report{Node: 2}}, "node 1: reported as node 2", nil},
		{"second report", ok(0), "node 0: second report", nil},
		{"port beyond degree", scripted{node: 2, rep: transport.Report{Node: 2, PerPort: []uint32{0, 0, 0, 0, 1}}}, "transport: node 2: report names port 4 of 2", nil},
		// Node 2 promised to idle, so round 0 released only nodes 0 and 1.
		{"not released", scripted{node: 2, rep: transport.Report{Node: 2}}, "transport: node 2: report for round 0, which did not release it", nil},
	}
	for _, tc := range cases {
		for _, phase := range []string{"init", "round"} {
			if tc.name == "not released" && phase == "init" {
				continue // Init hears from every node
			}
			t.Run(tc.name+"/"+phase, func(t *testing.T) {
				plane := &scriptedPlane{}
				if phase == "round" {
					plane.script = []scripted{ok(0), ok(1), ok(2)}
					if tc.name == "not released" {
						plane.script[2].rep.Wake = 9
					}
				}
				plane.script = append(plane.script, ok(0), tc.bad)
				coord := transport.NewCoordinator(graph.Cycle(3), plane, nil)
				var err error
				within(t, "coordinator", func() {
					if err = coord.Init(); err == nil && phase == "round" {
						_, err = sim.RunLoop(context.Background(), 10, coord.Step, nil)
					}
				})
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("got error %v, want one containing %q", err, tc.want)
				}
				if tc.is != nil && !errors.Is(err, tc.is) {
					t.Fatalf("error %v does not wrap %v", err, tc.is)
				}
			})
		}
	}
}

// TestCoordinatorCountsMessagesFromPerPort: a report's messages are its
// per-port counts, the same counts that drive delivery, so a fold can
// never deliver packets it did not count as sent.
func TestCoordinatorCountsMessagesFromPerPort(t *testing.T) {
	plane := &scriptedPlane{script: []scripted{
		{node: 0, rep: transport.Report{Node: 0, PerPort: []uint32{3}, Bits: 24}},
		{node: 1, rep: transport.Report{Node: 1}},
		{node: 2, rep: transport.Report{Node: 2}},
	}}
	coord := transport.NewCoordinator(graph.Cycle(3), plane, nil)
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	if m := coord.Metrics(); m.Messages != 3 || m.Bits != 24 {
		t.Fatalf("folded %d messages and %d bits, want 3 and 24", m.Messages, m.Bits)
	}
}

// TestCoordinatorReleasesTheVisitSet: a round releases exactly the nodes
// with mail, without a promise or with a due wake round. A round whose set
// is empty closes without a release yet is observed once, and a node that
// halted is never released again, even with mail sent to it in the round
// it halted in.
func TestCoordinatorReleasesTheVisitSet(t *testing.T) {
	rep := func(v int, r transport.Report) scripted {
		r.Node = v
		return scripted{node: v, rep: r}
	}
	// One message out of one port: node 2's port 0 leads to node 1, node
	// 1's port 1 to node 2 on the cycle 0-1-2.
	send := func(port int, r transport.Report) transport.Report {
		r.PerPort = make([]uint32, port+1)
		r.PerPort[port] = 1
		r.Bits, r.MaxSlots, r.MaxChannels = 8, 1, 1
		return r
	}
	plane := &scriptedPlane{script: []scripted{
		// Init: node 0 halts, node 1 sleeps until round 3, node 2 sends to
		// node 1 and sleeps until round 2.
		rep(0, transport.Report{Halted: true}),
		rep(1, transport.Report{Wake: 3}),
		rep(2, send(0, transport.Report{Wake: 2})),
		// Round 0 releases node 1 for its mail; it sleeps until round 2.
		rep(1, transport.Report{Wake: 2}),
		// Round 1 releases nobody. Round 2 releases nodes 1 and 2: node 1
		// sends to node 2, and both halt, so round 3 drains the packet
		// in flight to node 2 without a release.
		rep(1, send(1, transport.Report{Halted: true})),
		rep(2, transport.Report{Halted: true}),
	}}
	var observed []int
	coord := transport.NewCoordinator(graph.Cycle(3), plane, func(ri sim.RoundInfo) { observed = append(observed, ri.Round) })
	var rounds int
	var err error
	within(t, "coordinator", func() {
		if err = coord.Init(); err == nil {
			rounds, err = sim.RunLoop(context.Background(), 10, coord.Step, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]int{0: {1}, 2: {1, 2}}
	if !reflect.DeepEqual(plane.releases, want) {
		t.Errorf("releases by round %v, want %v", plane.releases, want)
	}
	if rounds != 4 || !reflect.DeepEqual(observed, []int{0, 1, 2, 3}) {
		t.Errorf("ran %d rounds observed as %v, want 4 observed as [0 1 2 3]", rounds, observed)
	}
	if m := coord.Metrics(); m.Rounds != 4 || m.ChargedRounds != 5 || m.Messages != 2 {
		t.Errorf("metrics %+v, want 4 rounds, 5 charged (Init's slot), 2 messages", m)
	}
}

// poisonMachine chats on every port; node 0 sends one payload in round 2
// that poisonCodec refuses to decode.
type poisonMachine struct{ node int }

const poison = 0xdead

func (m *poisonMachine) Init(ctx *sim.Context) { ctx.Broadcast(testMsg(1)) }

func (m *poisonMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	if m.node == 0 && ctx.Round() == 2 {
		ctx.Broadcast(testMsg(poison))
		return
	}
	ctx.Broadcast(testMsg(1))
}

type poisonCodec struct{ testCodec }

func (c poisonCodec) DecodePayload(src []byte) (sim.Payload, error) {
	p, err := c.testCodec.DecodePayload(src)
	if err == nil && p == testMsg(poison) {
		return nil, errors.New("poisoned payload")
	}
	return p, err
}

// TestClusterNodeFailureEndsRun is the same contract end to end: a node
// whose transport fails mid-run ends the run with an error naming a node,
// and Close still returns with every driver goroutine released.
func TestClusterNodeFailureEndsRun(t *testing.T) {
	for _, tr := range backends() {
		t.Run(tr.Name(), func(t *testing.T) {
			c, err := transport.NewCluster(context.Background(), transport.Config{
				Graph: graph.Cycle(6), Seed: 1, Transport: tr,
			}, func(node, degree int, r *rng.RNG) sim.Machine { return &poisonMachine{node: node} }, poisonCodec{})
			if err != nil {
				t.Fatal(err)
			}
			within(t, "failed run", func() { _, err = c.RunContext(context.Background(), 100) })
			if err == nil || !strings.Contains(err.Error(), "poisoned payload") || !strings.Contains(err.Error(), "transport: node ") {
				t.Fatalf("got error %v, want the poisoned node named", err)
			}
			within(t, "Close", c.Close)
		})
	}
}

// TestHandshakeRejectsWrongSeed wires one edge with its two endpoints
// deriving their tokens from different seeds: the acceptor must refuse the
// dialer's Hello.
func TestHandshakeRejectsWrongSeed(t *testing.T) {
	g := graph.Path(2)
	lns := make([]net.Listener, 2)
	for v := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[v] = ln
	}
	addrOf := func(w int) string { return lns[w].Addr().String() }
	connect := func(v int, seed uint64) error {
		links, err := transport.ConnectNode(context.Background(), g, v, seed, lns[v], addrOf, 5*time.Second)
		for _, l := range links {
			l.Close()
		}
		return err
	}
	dialed := make(chan error, 1)
	go func() { dialed <- connect(0, 8) }()
	err := connect(1, 7)
	if err == nil || !strings.Contains(err.Error(), "bad handshake") {
		t.Fatalf("acceptor returned %v, want a bad handshake error", err)
	}
	// The dialer only learns on first use that its peer hung up.
	if err := <-dialed; err != nil {
		t.Fatal(fmt.Errorf("dialer: %w", err))
	}
}
