package adversary

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/sim"
)

// mustBuild builds s for g and fails the test on an error or a nil
// adversary.
func mustBuild(t *testing.T, s Spec, g *graph.Graph, seed uint64) sim.Adversary {
	t.Helper()
	adv, err := s.Build(g, seed)
	if err != nil || adv == nil {
		t.Fatalf("build %+v: %v, %v", s, adv, err)
	}
	return adv
}

func TestLossDeterministicAndRateSensitive(t *testing.T) {
	g := graph.Path(11)
	a := mustBuild(t, Spec{Loss: 0.5}, g, 7)
	b := mustBuild(t, Spec{Loss: 0.5}, g, 7)
	drops := 0
	for round := 0; round < 50; round++ {
		for from := 0; from < 10; from++ {
			d1, dl1 := a.Fate(round, from, 0, from+1)
			d2, dl2 := b.Fate(round, from, 0, from+1)
			if d1 != d2 || dl1 != dl2 {
				t.Fatalf("same-seed adversaries disagree at round %d from %d", round, from)
			}
			if dl1 != 0 {
				t.Fatal("loss adversary delayed a packet")
			}
			if d1 {
				drops++
			}
		}
	}
	if drops < 150 || drops > 350 {
		t.Fatalf("p=0.5 dropped %d/500, far from expectation", drops)
	}
	// Zero and one rates are exact (a crash schedule keeps the p=0 spec
	// from being the zero spec, which builds no adversary at all).
	never := mustBuild(t, Spec{CrashSchedule: map[int]int{0: 99}}, g, 1)
	always := mustBuild(t, Spec{Loss: 1}, g, 1)
	for round := 0; round < 20; round++ {
		if d, _ := never.Fate(round, 0, 0, 1); d {
			t.Fatal("p=0 dropped")
		}
		if d, _ := always.Fate(round, 0, 0, 1); !d {
			t.Fatal("p=1 delivered")
		}
	}
}

// TestLossCallOrderIndependence pins the decision-stream property: the
// fate of (round, from, port) does not depend on which other slots were
// queried before it.
func TestLossCallOrderIndependence(t *testing.T) {
	g := graph.Cycle(5)
	forward, backward := mustBuild(t, Spec{Loss: 0.5}, g, 9), mustBuild(t, Spec{Loss: 0.5}, g, 9)
	var f []bool
	for round := 0; round < 10; round++ {
		for from := 0; from < 5; from++ {
			d, _ := forward.Fate(round, from, 0, 0)
			f = append(f, d)
		}
	}
	for round := 9; round >= 0; round-- {
		for from := 4; from >= 0; from-- {
			d, _ := backward.Fate(round, from, 0, 0)
			if d != f[round*5+from] {
				t.Fatalf("slot (r%d,n%d) fate depends on query order", round, from)
			}
		}
	}
}

func TestRandomCrashSchedule(t *testing.T) {
	g, by := graph.Cycle(200), 16
	s := Spec{CrashFraction: 0.25, CrashBy: by}
	c, again := mustBuild(t, s, g, 3), mustBuild(t, s, g, 3)
	crashed := 0
	for v := 0; v < g.N(); v++ {
		r := c.CrashRound(v)
		if r != again.CrashRound(v) {
			t.Fatal("crash schedule not deterministic")
		}
		if r >= 0 {
			crashed++
			if r > by {
				t.Fatalf("node %d crashes at %d > by %d", v, r, by)
			}
		}
	}
	if crashed < 25 || crashed > 90 {
		t.Fatalf("fraction 0.25 crashed %d/200, far from expectation", crashed)
	}
	all := mustBuild(t, Spec{CrashFraction: 1, CrashBy: 0}, g, 3)
	for v := 0; v < g.N(); v++ {
		if all.CrashRound(v) != 0 {
			t.Fatalf("fraction 1 by round 0: node %d crashes at %d", v, all.CrashRound(v))
		}
	}
}

// TestCrashScheduleFixed: a schedule crashes exactly the listed nodes,
// combined with a sampled crash the earlier round wins, and a schedule
// naming a node the network does not have is an error.
func TestCrashScheduleFixed(t *testing.T) {
	g := graph.Cycle(8)
	c := mustBuild(t, Spec{CrashSchedule: map[int]int{2: 5, 7: 0}}, g, 1)
	want := map[int]int{0: -1, 1: -1, 2: 5, 3: -1, 4: -1, 5: -1, 6: -1, 7: 0}
	for v, w := range want {
		if got := c.CrashRound(v); got != w {
			t.Fatalf("node %d crash round %d, want %d", v, got, w)
		}
	}
	if c.CrashRound(9) != -1 || c.CrashRound(-1) != -1 {
		t.Fatal("out-of-range node did not report never-crash")
	}

	sampled := mustBuild(t, Spec{CrashFraction: 1, CrashBy: 40}, g, 5)
	sched := map[int]int{0: 0, 3: 20, 5: 40}
	both := mustBuild(t, Spec{CrashFraction: 1, CrashBy: 40, CrashSchedule: sched}, g, 5)
	for v := 0; v < g.N(); v++ {
		want := sampled.CrashRound(v)
		if r, ok := sched[v]; ok && r < want {
			want = r
		}
		if got := both.CrashRound(v); got != want {
			t.Fatalf("node %d crashes at %d, want the earlier of sample and schedule %d", v, got, want)
		}
	}

	if _, err := (Spec{CrashSchedule: map[int]int{9: 1, 12: 0}}).Build(g, 1); !errors.Is(err, ErrCrashNodeOutOfRange) ||
		!strings.Contains(err.Error(), "node 9 in a 8-node network") {
		t.Fatalf("out-of-range schedule: %v", err)
	}
}

func TestChurnSymmetricAndConnectivityPreserving(t *testing.T) {
	g := graph.Cycle(12)
	c := mustBuild(t, Spec{Churn: 0.5}, g, 11)
	downs := 0
	for round := 0; round < 40; round++ {
		for v := 0; v < g.N(); v++ {
			w := g.Neighbor(v, 0)
			d1, _ := c.Fate(round, v, 0, w)
			d2, _ := c.Fate(round, w, g.PortTo(w, v), v)
			if d1 != d2 {
				t.Fatalf("edge {%d,%d} asymmetric in round %d", v, w, round)
			}
			if d1 {
				downs++
			}
		}
	}
	if downs == 0 {
		t.Fatal("p=0.5 churn never masked an edge")
	}

	// With preservation, the BFS tree stays up: under p=1 every non-tree
	// edge is down, and the up-edges alone must keep the graph connected.
	p := mustBuild(t, Spec{Churn: 1, ChurnPreserve: true}, g, 11)
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		if drop, _ := p.Fate(0, e[0], g.PortTo(e[0], e[1]), e[1]); !drop {
			b.AddEdge(e[0], e[1])
		}
	}
	live := b.Graph()
	if !live.IsConnected() {
		t.Fatal("connectivity-preserving churn disconnected the graph")
	}
	if live.M() >= g.M() {
		t.Fatalf("p=1 preserving churn kept all %d edges", live.M())
	}
}

func TestDelayBoundsAndDeterminism(t *testing.T) {
	g := graph.Path(3)
	d, d2 := mustBuild(t, Spec{DelayProb: 1, MaxDelay: 3}, g, 5), mustBuild(t, Spec{DelayProb: 1, MaxDelay: 3}, g, 5)
	seen := map[int]int{}
	for round := 0; round < 60; round++ {
		drop, dl := d.Fate(round, 1, 0, 2)
		drop2, dl2 := d2.Fate(round, 1, 0, 2)
		if drop || drop2 {
			t.Fatal("delay adversary dropped a packet")
		}
		if dl != dl2 {
			t.Fatal("delay not deterministic")
		}
		if dl < 1 || dl > 3 {
			t.Fatalf("p=1 delay %d outside [1,3]", dl)
		}
		seen[dl]++
	}
	if len(seen) < 2 {
		t.Fatalf("delays not spread over the range: %v", seen)
	}
	if d.MaxDelay() != 3 {
		t.Fatalf("MaxDelay %d", d.MaxDelay())
	}
	// A bound without a rate configures no jitter: nothing is late and the
	// simulator's delay ring is not sized for it.
	inert := mustBuild(t, Spec{MaxDelay: 3, CrashSchedule: map[int]int{0: 9}}, g, 5)
	if _, dl := inert.Fate(0, 0, 0, 1); dl != 0 || inert.MaxDelay() != 0 {
		t.Fatalf("p=0 delayed %d, MaxDelay %d", dl, inert.MaxDelay())
	}
}

func TestSpecZeroAndValidate(t *testing.T) {
	zero := []Spec{
		{},
		{Loss: 0, Churn: 0},
		{MaxDelay: 3},         // no DelayProb → inert
		{DelayProb: 0.5},      // no MaxDelay → inert
		{CrashBy: 9},          // no fraction or schedule → inert
		{ChurnPreserve: true}, // no churn rate → inert
	}
	for i, s := range zero {
		if !s.IsZero() {
			t.Fatalf("spec %d not zero: %+v", i, s)
		}
		adv, err := s.Build(graph.Cycle(4), 1)
		if err != nil || adv != nil {
			t.Fatalf("zero spec %d built %v, %v", i, adv, err)
		}
		if s.Descriptor() != "" {
			t.Fatalf("zero spec %d descriptor %q", i, s.Descriptor())
		}
	}
	nan := math.NaN()
	bad := []Spec{
		{Loss: 1.5},
		{Loss: -0.1},
		{CrashFraction: 2},
		{Churn: -1},
		{DelayProb: 7, MaxDelay: 1},
		{CrashFraction: 0.5, CrashBy: -1},
		{DelayProb: 0.5, MaxDelay: -2},
		{CrashSchedule: map[int]int{-1: 4}},
		{Loss: nan},
		{Churn: nan},
		{DelayProb: nan, MaxDelay: 2},
		{CrashFraction: nan, CrashBy: 3},
		{Loss: math.Inf(1)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d validated: %+v", i, s)
		}
		if _, err := s.Build(graph.Cycle(4), 1); err == nil {
			t.Fatalf("bad spec %d built: %+v", i, s)
		}
	}
}

func TestSpecDescriptorCanonical(t *testing.T) {
	s := Spec{Loss: 0.1, CrashFraction: 0.25, CrashBy: 16, Churn: 0.05, ChurnPreserve: true,
		DelayProb: 0.5, MaxDelay: 3}
	want := "loss=0.1,crash=0.25@16,churn=0.05+conn,delay=0.5x3"
	if got := s.Descriptor(); got != want {
		t.Fatalf("descriptor %q, want %q", got, want)
	}
	if got := (Spec{Churn: 0.3}).Descriptor(); got != "churn=0.3" {
		t.Fatalf("descriptor %q", got)
	}
	if got := (Spec{CrashSchedule: map[int]int{0: 1, 3: 2}}).Descriptor(); !strings.Contains(got, "crashsched=2") {
		t.Fatalf("descriptor %q", got)
	}
}

func TestSpecBuildComposesConfiguredParts(t *testing.T) {
	g := graph.Torus(4, 8)
	s := Spec{Loss: 0.2, CrashFraction: 0.3, CrashBy: 8, DelayProb: 0.5, MaxDelay: 2}
	adv := mustBuild(t, s, g, 42)
	if adv.MaxDelay() != 2 {
		t.Fatalf("MaxDelay %d", adv.MaxDelay())
	}
	crashes := 0
	for v := 0; v < g.N(); v++ {
		if adv.CrashRound(v) >= 0 {
			crashes++
		}
	}
	if crashes == 0 || crashes == g.N() {
		t.Fatalf("crash fraction 0.3 crashed %d/%d", crashes, g.N())
	}
	// Same seed rebuild is identical.
	adv2 := mustBuild(t, s, g, 42)
	for v := 0; v < g.N(); v++ {
		if adv.CrashRound(v) != adv2.CrashRound(v) {
			t.Fatal("rebuild changed the crash schedule")
		}
	}
}

// TestLossIndependentFatesWithinSlot: the k-th packet of one (round,
// sender, port) slot has its own fate, decisions agree whether slot
// queries are contiguous or interleaved (a machine sending for several
// broadcast executions in one round interleaves ports), and fates within
// one slot are not perfectly correlated.
func TestLossIndependentFatesWithinSlot(t *testing.T) {
	const rounds, packets = 60, 2
	type slot struct{ round, port, k int }
	record := func(interleave bool) map[slot]bool {
		l := mustBuild(t, Spec{Loss: 0.5}, graph.Path(2), 13)
		out := map[slot]bool{}
		for round := 0; round < rounds; round++ {
			if interleave {
				for k := 0; k < packets; k++ {
					for port := 0; port < 2; port++ {
						d, _ := l.Fate(round, 0, port, 1)
						out[slot{round, port, k}] = d
					}
				}
			} else {
				for port := 0; port < 2; port++ {
					for k := 0; k < packets; k++ {
						d, _ := l.Fate(round, 0, port, 1)
						out[slot{round, port, k}] = d
					}
				}
			}
		}
		return out
	}
	contiguous, interleaved := record(false), record(true)
	for s, d := range contiguous {
		if interleaved[s] != d {
			t.Fatalf("slot %+v fate depends on query interleaving", s)
		}
	}
	diverged := 0
	for round := 0; round < rounds; round++ {
		if contiguous[slot{round, 0, 0}] != contiguous[slot{round, 0, 1}] {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("packets of one slot always share a fate (correlated draws)")
	}
}

// answers runs a fixed query script against adv on g and folds every
// answer into one FNV-64 digest: MaxDelay, CrashRound of every node and of
// one out-of-range index on each side, then for rounds -1..29 every node's
// multi-packet sends through Fate — an even node's slots interleaved, an
// odd node's contiguous, every ninth round silent — and the round's send
// counts through ObserveTraffic. A dropped packet folds as -1 without its
// delay, which the simulator never reads.
func answers(adv sim.Adversary, g *graph.Graph) uint64 {
	h := fnv.New64a()
	put := func(v int) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(int64(v)))) }
	put(adv.MaxDelay())
	for v := -1; v <= g.N(); v++ {
		put(adv.CrashRound(v))
	}
	sent := make([]int, g.N())
	for round := -1; round < 30; round++ {
		for v := 0; v < g.N(); v++ {
			per := (7*v + 3*round + 5) % 4 // packets per port
			if round%9 == 4 {
				per = 0
			}
			fate := func(port int) {
				drop, delay := adv.Fate(round, v, port, g.Neighbor(v, port))
				if drop {
					delay = -1
				}
				put(delay)
			}
			if v%2 == 0 {
				for k := 0; k < per; k++ {
					for port := 0; port < g.Degree(v); port++ {
						fate(port)
					}
				}
			} else {
				for port := 0; port < g.Degree(v); port++ {
					for k := 0; k < per; k++ {
						fate(port)
					}
				}
			}
			sent[v] = per * g.Degree(v)
		}
		picks := adv.ObserveTraffic(round, sent)
		put(len(picks))
		for _, p := range picks {
			put(p)
		}
	}
	return h.Sum64()
}

// TestAdversaryMatchesParentDigest pins the one adversary type to the
// answers of the per-kind types and their composition it replaced: the
// constants were produced by running the same script against the
// composed adversary the previous Spec.Build returned.
func TestAdversaryMatchesParentDigest(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want uint64
	}{
		{"loss", Spec{Loss: 0.3}, 0x2122407fe2ee4cbd},
		{"crash", Spec{CrashFraction: 0.4, CrashBy: 6}, 0xa3b8424e9b49ac7e},
		{"schedule", Spec{CrashSchedule: map[int]int{1: 3, 6: 0, 11: 9}}, 0x3070da51c01be0f7},
		{"churn", Spec{Churn: 0.35}, 0x2088c7d5d4938fad},
		{"churn+conn", Spec{Churn: 0.6, ChurnPreserve: true}, 0x7446a4395743cca5},
		{"delay", Spec{DelayProb: 0.5, MaxDelay: 3}, 0xcbf604fe3eae3877},
		{"adaptive", Spec{AdaptiveCrash: 2, AdaptiveWindow: 3, AdaptiveStrikes: 2}, 0xbe482ac6853cd273},
		{"all", Spec{Loss: 0.2, CrashFraction: 0.3, CrashBy: 5, CrashSchedule: map[int]int{2: 1, 7: 8, 12: 0},
			Churn: 0.25, ChurnPreserve: true, DelayProb: 0.4, MaxDelay: 2,
			AdaptiveCrash: 1, AdaptiveWindow: 2, AdaptiveStrikes: 3}, 0x869aea9d7e1d5b0b},
	}
	g := graph.Torus(4, 4)
	for _, c := range cases {
		if got := answers(mustBuild(t, c.spec, g, 2024), g); got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
