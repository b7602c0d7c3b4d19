package baseline

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
)

// mustBuild builds proto from pc through the registry, as every production
// caller does.
func mustBuild(t testing.TB, proto string, pc core.ProtoConfig) core.Runner {
	t.Helper()
	e, ok := core.Lookup(proto)
	if !ok {
		t.Fatalf("protocol %q not registered", proto)
	}
	r, err := e.Build(pc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return r
}

// rejects reports whether the registry refuses to build proto from pc.
func rejects(proto string, pc core.ProtoConfig) bool {
	e, _ := core.Lookup(proto)
	_, err := e.Build(pc)
	return err != nil
}

func runFlood(t *testing.T, g *graph.Graph, cfg core.ProtoConfig, seed uint64) (int, []FloodOutput) {
	t.Helper()
	r := mustBuild(t, "floodmax", cfg)
	nw := sim.New(sim.Config{Graph: g, Seed: seed}, r.Factory)
	nw.Run(r.Budget)
	if !nw.AllHalted() {
		t.Fatal("flood did not halt")
	}
	leaders := 0
	outs := make([]FloodOutput, g.N())
	for v := range outs {
		outs[v] = nw.Machine(v).(*FloodMachine).Output()
		if outs[v].Leader {
			leaders++
		}
	}
	return leaders, outs
}

func TestFloodConfigValidation(t *testing.T) {
	bad := []struct {
		proto string
		pc    core.ProtoConfig
	}{
		{"floodmax", core.ProtoConfig{N: 1, Diam: 3}},
		{"allflood", core.ProtoConfig{N: 8, Diam: 0}},
		{"floodmax", core.ProtoConfig{N: 8, Diam: 3, C: -1}},
		{"floodmax", core.ProtoConfig{N: 8, Diam: 3, C: math.NaN()}},
	}
	for _, b := range bad {
		if !rejects(b.proto, b.pc) {
			t.Fatalf("%s accepted %+v", b.proto, b.pc)
		}
	}
}

func TestFloodAllNodesAlwaysUnique(t *testing.T) {
	// With every node a candidate, FloodMax must elect exactly one leader
	// every time (max of distinct random IDs; collisions are ~n²/n⁴).
	for _, g := range []*graph.Graph{
		graph.Cycle(16), graph.Complete(12), graph.Star(9), graph.Grid(4, 4),
	} {
		cfg := core.ProtoConfig{N: g.N(), Diam: g.Diameter(), AllNodes: true}
		for s := uint64(0); s < 5; s++ {
			leaders, outs := runFlood(t, g, cfg, 600+s)
			if leaders != 1 {
				t.Fatalf("n=%d seed=%d: %d leaders", g.N(), s, leaders)
			}
			// Every node must have learned the global maximum.
			var max uint64
			for _, o := range outs {
				if o.ID > max {
					max = o.ID
				}
			}
			for v, o := range outs {
				if o.MaxSeen != max {
					t.Fatalf("node %d saw %d want %d", v, o.MaxSeen, max)
				}
			}
		}
	}
}

func TestFloodSampledCandidates(t *testing.T) {
	g := graph.Torus(4, 4)
	cfg := core.ProtoConfig{N: g.N(), Diam: g.Diameter()}
	wins, zero := 0, 0
	const trials = 20
	for s := uint64(0); s < trials; s++ {
		leaders, outs := runFlood(t, g, cfg, 800+s)
		cands := 0
		for _, o := range outs {
			if o.Candidate {
				cands++
			}
		}
		switch {
		case cands == 0 && leaders == 0:
			zero++
		case leaders == 1:
			wins++
		default:
			t.Fatalf("seed=%d: %d leaders with %d candidates", s, leaders, cands)
		}
	}
	if wins == 0 {
		t.Fatal("no successful elections")
	}
	_ = zero // zero-candidate trials are legitimate whp-failures
}

func TestFloodMessageBound(t *testing.T) {
	// Send-on-change flooding: each link carries at most #distinct-IDs
	// messages in each direction.
	g := graph.Complete(24)
	r := mustBuild(t, "allflood", core.ProtoConfig{N: g.N(), Diam: 1})
	nw := sim.New(sim.Config{Graph: g, Seed: 4}, r.Factory)
	nw.Run(r.Budget)
	maxMsgs := int64(2 * g.M() * g.N()) // crude upper bound: n IDs per direction
	if m := nw.Metrics().Messages; m > maxMsgs {
		t.Fatalf("messages %d exceed bound %d", m, maxMsgs)
	}
}

func runWalkNotify(t *testing.T, g *graph.Graph, cfg core.ProtoConfig, seed uint64) (int, []WalkNotifyOutput, sim.Metrics) {
	t.Helper()
	r := mustBuild(t, "walknotify", cfg)
	nw := sim.New(sim.Config{Graph: g, Seed: seed}, r.Factory)
	nw.Run(r.Budget)
	if !nw.AllHalted() {
		t.Fatal("walknotify did not halt")
	}
	leaders := 0
	outs := make([]WalkNotifyOutput, g.N())
	for v := range outs {
		outs[v] = nw.Machine(v).(*WalkNotifyMachine).Output()
		if outs[v].Leader {
			leaders++
		}
	}
	return leaders, outs, nw.Metrics()
}

func TestWalkNotifyConfigValidation(t *testing.T) {
	for _, pc := range []core.ProtoConfig{
		{N: 1, TMix: 3},
		{N: 8, TMix: 0},
		{N: 8, TMix: 3, C: -1},
		{N: 8, TMix: 3, C: math.NaN()},
	} {
		if !rejects("walknotify", pc) {
			t.Fatalf("walknotify accepted %+v", pc)
		}
	}
}

func TestWalkNotifySuccessAcrossFamilies(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		trials int
		min    int
	}{
		{"complete24", graph.Complete(24), 10, 8},
		{"cycle16", graph.Cycle(16), 10, 7},
		{"torus4x4", graph.Torus(4, 4), 10, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prof, err := spectral.ProfileGraph(c.g)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.ProtoConfig{N: c.g.N(), TMix: prof.MixingTime}
			wins := 0
			for s := uint64(0); s < uint64(c.trials); s++ {
				leaders, _, _ := runWalkNotify(t, c.g, cfg, 900+s)
				if leaders == 1 {
					wins++
				}
			}
			if wins < c.min {
				t.Fatalf("wins %d/%d below %d", wins, c.trials, c.min)
			}
		})
	}
}

func TestWalkNotifyMaxCandidateNeverEliminated(t *testing.T) {
	g := graph.Complete(24)
	prof, err := spectral.ProfileGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ProtoConfig{N: g.N(), TMix: prof.MixingTime}
	for s := uint64(0); s < 10; s++ {
		_, outs, _ := runWalkNotify(t, g, cfg, 300+s)
		var maxCand uint64
		for _, o := range outs {
			if o.Candidate && o.ID > maxCand {
				maxCand = o.ID
			}
		}
		for v, o := range outs {
			if o.Candidate && o.ID == maxCand && o.Eliminated {
				t.Fatalf("seed=%d: max candidate %d eliminated", s, v)
			}
		}
	}
}

func TestWalkNotifyLeadersAreNonEliminatedCandidates(t *testing.T) {
	g := graph.Torus(4, 4)
	prof, err := spectral.ProfileGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ProtoConfig{N: g.N(), TMix: prof.MixingTime}
	for s := uint64(0); s < 5; s++ {
		_, outs, _ := runWalkNotify(t, g, cfg, 70+s)
		for v, o := range outs {
			if o.Leader && (!o.Candidate || o.Eliminated) {
				t.Fatalf("seed=%d: node %d leads while eliminated/non-candidate", s, v)
			}
		}
	}
}

func TestWalkNotifyBetaDefault(t *testing.T) {
	p, err := resolveWalkNotify(core.ProtoConfig{N: 64, TMix: 10})
	if err != nil {
		t.Fatal(err)
	}
	// beta = ceil(sqrt(n) * ln(n)^{3/2}) = ceil(8 * 4.159^1.5) = ceil(67.85).
	if p.beta != 68 {
		t.Fatalf("beta %d, want 68", p.beta)
	}
}

func TestWalkNotifyDeterministic(t *testing.T) {
	g := graph.Complete(16)
	cfg := core.ProtoConfig{N: 16, TMix: 4}
	l1, o1, m1 := runWalkNotify(t, g, cfg, 5)
	l2, o2, m2 := runWalkNotify(t, g, cfg, 5)
	if l1 != l2 || m1 != m2 {
		t.Fatal("runs diverged")
	}
	for v := range o1 {
		if o1[v] != o2[v] {
			t.Fatalf("node %d output differs", v)
		}
	}
}

// TestWalkNotifyLargerMarkKillsParkedTokens drives the per-candidate table
// directly: tokens of a larger candidate arriving at a node kill the
// parked tokens of every smaller one (not of larger ones), queue one kill
// notice each, and keep the breadcrumbs the notices travel along.
func TestWalkNotifyLargerMarkKillsParkedTokens(t *testing.T) {
	m := &WalkNotifyMachine{maxMark: 30}
	for _, c := range []struct {
		orig         uint64
		back, parked int
	}{{30, 3, 4}, {10, 1, 1}, {50, 2, 5}, {20, 2, 3}} {
		cand, _ := m.cands.Insert(c.orig)
		cand.back, cand.parked = c.back, c.parked
	}
	m.receiveTokens(1, wnTokenMsg{orig: 25, count: 9}) // below the mark: dies on arrival
	m.receiveTokens(0, wnTokenMsg{orig: 40, count: 2})

	want := map[uint64]wnCand{
		10: {back: 1, killSent: true},
		20: {back: 2, killSent: true},
		25: {back: 2, killSent: true},
		30: {back: 3, killSent: true},
		40: {back: 1, parked: 2},
		50: {back: 2, parked: 5},
	}
	if m.cands.Len() != len(want) {
		t.Fatalf("%d candidates remembered, want %d", m.cands.Len(), len(want))
	}
	for i := 0; i < m.cands.Len(); i++ {
		if id, c := m.cands.At(i); *c != want[id] {
			t.Fatalf("candidate %d = %+v, want %+v", id, *c, want[id])
		}
	}
	if m.maxMark != 40 {
		t.Fatalf("mark %d, want 40", m.maxMark)
	}
	slices.Sort(m.killQueue)
	if !slices.Equal(m.killQueue, []uint64{10, 20, 25, 30}) {
		t.Fatalf("kill queue %v", m.killQueue)
	}
}

// wirePayloads returns one payload of every baseline wire tag.
func wirePayloads() []sim.Payload {
	return []sim.Payload{
		floodMsg{id: 1 << 40},
		&wnTokenMsg{orig: 987654321, count: 17},
		&wnKillMsg{orig: 987654321},
	}
}

// TestWireCodecRoundTrip: every payload the baselines send decodes to a
// value equal to the encoded one (walknotify's messages travel as
// pointers, so equality is of what they point at).
func TestWireCodecRoundTrip(t *testing.T) {
	for _, p := range wirePayloads() {
		body, err := wireCodec{}.AppendPayload(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wireCodec{}.DecodePayload(body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%T: decoded %+v, encoded %+v", p, got, p)
		}
	}
	if _, err := (wireCodec{}).AppendPayload(nil, wnKillMsg{orig: 1}); err == nil {
		t.Fatal("a walknotify message sent by value must not encode")
	}
}

// FuzzDecodePayload: arbitrary bytes decode to a payload or an error, never
// a panic, and a decoded payload re-encodes to exactly the input bytes.
func FuzzDecodePayload(f *testing.F) {
	for _, p := range wirePayloads() {
		body, err := wireCodec{}.AppendPayload(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)-1]) // truncated
	}
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	f.Add(append([]byte{wireFlood}, overlong...))
	f.Add(append([]byte{wireWNToken, 0x07}, overlong...))
	f.Add([]byte{wireWNToken, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := wireCodec{}.DecodePayload(data)
		if err != nil {
			return
		}
		body, err := wireCodec{}.AppendPayload(nil, p)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", p, err)
		}
		if !bytes.Equal(body, data) {
			t.Fatalf("decoded %T %+v from %x, which re-encodes as %x", p, p, data, body)
		}
	})
}

func TestPayloadBits(t *testing.T) {
	if (wnTokenMsg{orig: 1023, count: 7}).Bits() != 10+3 {
		t.Fatalf("token bits %d", (wnTokenMsg{orig: 1023, count: 7}).Bits())
	}
	if (wnKillMsg{orig: 1023}).Bits() != 11 {
		t.Fatalf("kill bits %d", (wnKillMsg{orig: 1023}).Bits())
	}
	if (floodMsg{id: 255}).Bits() != 8 {
		t.Fatalf("flood bits %d", (floodMsg{id: 255}).Bits())
	}
}

func TestWalkNotifyTokenConservationDuringWalkPhase(t *testing.T) {
	// Until kills start, the number of live tokens of the maximum
	// candidate is conserved (its tokens are never absorbed). Verify the
	// winner's parked tokens never exceed beta in total.
	g := graph.Complete(12)
	cfg := core.ProtoConfig{N: 12, TMix: 3}
	nw := sim.New(sim.Config{Graph: g, Seed: 8}, mustBuild(t, "walknotify", cfg).Factory)
	p, _ := resolveWalkNotify(cfg)
	var maxCand uint64
	for v := 0; v < g.N(); v++ {
		o := nw.Machine(v).(*WalkNotifyMachine).out
		if o.Candidate && o.ID > maxCand {
			maxCand = o.ID
		}
	}
	if maxCand == 0 {
		t.Skip("no candidate in this seed")
	}
	for step := 0; step < p.total+2; step++ {
		if !nw.Step() {
			break
		}
		total := 0
		for v := 0; v < g.N(); v++ {
			if c := nw.Machine(v).(*WalkNotifyMachine).cands.Find(maxCand); c != nil {
				total += c.parked
			}
		}
		if total > p.beta {
			t.Fatalf("round %d: %d parked tokens of max candidate exceed beta %d", step, total, p.beta)
		}
	}
}
