package sim

import (
	"fmt"
	"slices"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// TestTableSortedUnderArbitraryInsertOrder: whatever order IDs arrive in,
// iteration is ascending, every inserted ID is found with its own value,
// re-inserting is a lookup, and absent IDs miss.
func TestTableSortedUnderArbitraryInsertOrder(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		var tab Table[int]
		want := map[uint64]int{}
		for len(want) < 1+trial%24 {
			id := 1 + r.Uint64n(40) // small space: duplicates are common
			v, added := tab.Insert(id)
			if _, dup := want[id]; added == dup {
				t.Fatalf("Insert(%d) added=%v with present=%v", id, added, dup)
			}
			if added {
				if *v != 0 {
					t.Fatalf("fresh entry %d holds %d, want zero", id, *v)
				}
				*v = int(id) * 3
				want[id] = *v
			}
		}
		if tab.Len() != len(want) {
			t.Fatalf("Len %d want %d", tab.Len(), len(want))
		}
		var ids []uint64
		for i := 0; i < tab.Len(); i++ {
			id, v := tab.At(i)
			if *v != want[id] {
				t.Fatalf("At(%d) = (%d, %d), want value %d", i, id, *v, want[id])
			}
			if tab.Index(id) != i || tab.Find(id) != v {
				t.Fatalf("Index/Find(%d) disagree with At(%d)", id, i)
			}
			ids = append(ids, id)
		}
		if !slices.IsSorted(ids) {
			t.Fatalf("iteration not ascending: %v", ids)
		}
		for id := uint64(41); id < 45; id++ {
			if tab.Find(id) != nil || tab.Index(id) != -1 {
				t.Fatalf("absent id %d found", id)
			}
		}
	}
	var empty Table[int]
	if empty.Len() != 0 || empty.Find(1) != nil {
		t.Fatal("zero table is not empty")
	}
}

// TestTableMutateWhileIteratingAscending is WalkNotify's "parked tokens of
// smaller candidates die" path: one ascending pass clears every entry
// below a new mark through the At pointers, entries stay in place (a
// cleared candidate keeps its breadcrumb), and the pass sees each entry
// exactly once.
func TestTableMutateWhileIteratingAscending(t *testing.T) {
	type cand struct{ back, parked int }
	var tab Table[cand]
	for _, id := range []uint64{50, 10, 40, 20, 30} {
		c, _ := tab.Insert(id)
		*c = cand{back: int(id), parked: 2}
	}
	const mark = 35
	var died []uint64
	for i := 0; i < tab.Len(); i++ {
		if id, c := tab.At(i); id < mark && c.parked > 0 {
			c.parked = 0
			died = append(died, id)
		}
	}
	if !slices.Equal(died, []uint64{10, 20, 30}) {
		t.Fatalf("died %v, want the entries below the mark in ascending order", died)
	}
	for i := 0; i < tab.Len(); i++ {
		id, c := tab.At(i)
		want := cand{back: int(id), parked: 2}
		if id < mark {
			want.parked = 0
		}
		if *c != want {
			t.Fatalf("entry %d = %+v after the pass, want %+v", id, *c, want)
		}
	}
}

// TestArenaSlabsDoubleToTheMaximum: machines keep distinct stable
// addresses and zero values, a small network gets a small slab, and slabs
// double up to the maximum.
func TestArenaSlabsDoubleToTheMaximum(t *testing.T) {
	var a Arena[[2]int]
	var got []*[2]int
	for i := 0; i < 3*maxArenaChunk; i++ {
		p := a.New()
		if *p != [2]int{} {
			t.Fatalf("machine %d starts at %v, want zero", i, *p)
		}
		*p = [2]int{i, -i}
		got = append(got, p)
		if i == 0 && cap(a.slab) != minArenaChunk {
			t.Fatalf("first slab holds %d machines, want %d", cap(a.slab), minArenaChunk)
		}
		if cap(a.slab) > maxArenaChunk || cap(a.slab) > 2*max(i+1, minArenaChunk) {
			t.Fatalf("after %d machines the slab holds %d", i+1, cap(a.slab))
		}
	}
	for i, p := range got {
		if *p != [2]int{i, -i} {
			t.Fatalf("machine %d reads %v after later builds", i, *p)
		}
	}
}

// TestMsgsRingKeepsEachRoundForLife: a message stays valid and distinct
// from every other message of the last life rounds, however many a round
// sends (the in-place room and heap chunks alike), and a warmed ring
// refills its slots without allocating. With life 0 every message is its
// own object.
func TestMsgsRingKeepsEachRoundForLife(t *testing.T) {
	for _, life := range []uint8{0, 2, 3, 6} {
		ctx := &Context{life: life}
		var m Msgs[[2]int]
		type sent struct {
			p     *[2]int
			round int
			want  [2]int
		}
		var live []sent
		for round := -1; round < 40; round++ {
			ctx.round = round
			for i := 0; i < 1+(round+7)%9; i++ { // 0..8 sends beyond the first, crossing msgInline
				v := [2]int{round, i}
				live = append(live, sent{m.New(ctx, v), round, v})
			}
			seen := map[*[2]int]bool{}
			for _, s := range live {
				if life > 0 && s.round <= round-int(life) {
					continue // its slot may be refilled now
				}
				if *s.p != s.want {
					t.Fatalf("life %d: message %v of round %d reads %v in round %d", life, s.want, s.round, *s.p, round)
				}
				if seen[s.p] {
					t.Fatalf("life %d: message %v of round %d shares an address in round %d", life, s.want, s.round, round)
				}
				seen[s.p] = true
			}
		}
		if life == 0 {
			continue
		}
		round := 40
		if allocs := testing.AllocsPerRun(10, func() {
			for end := round + int(life); round < end; round++ {
				ctx.round = round
				for i := 0; i < 9; i++ {
					m.New(ctx, [2]int{round, i})
				}
			}
		}); allocs != 0 {
			t.Fatalf("life %d: a warmed ring allocates %v objects per %d rounds, want 0", life, allocs, life)
		}
	}
}

// stampMsg is a payload that names its send round and sender, with a
// checksum over both.
type stampMsg struct {
	round, from int
	sum         uint64
}

func (m *stampMsg) Bits() int { return 8 }

func stampSum(round, from int) uint64 {
	return (uint64(round)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9 ^ uint64(from)<<20
}

// stamper sends a ring-allocated stampMsg on every port in every round,
// on a channel that carries the send round again, and checks that what
// it receives is exactly what its neighbour sent no more than maxDelay
// rounds of lateness ago.
type stamper struct {
	t        *testing.T
	g        *graph.Graph
	node     int
	maxDelay int
	msgs     Msgs[stampMsg]
	got      int
}

func (m *stamper) Init(ctx *Context) { m.send(ctx) }

func (m *stamper) Step(ctx *Context, inbox []Packet) {
	round := ctx.Round()
	for _, pkt := range inbox {
		msg := pkt.Payload.(*stampMsg)
		switch {
		case msg.round < round-1-m.maxDelay || msg.round > round-1:
			m.t.Errorf("node %d round %d: stamp %d outside [%d, %d]", m.node, round, msg.round, round-1-m.maxDelay, round-1)
		case msg.sum != stampSum(msg.round, msg.from):
			m.t.Errorf("node %d round %d: checksum of %+v does not hold", m.node, round, *msg)
		case msg.round != int(pkt.Channel)-1 || msg.from != m.g.Neighbor(m.node, int(pkt.Port)):
			m.t.Errorf("node %d round %d: port %d channel %d delivered %+v", m.node, round, pkt.Port, pkt.Channel, *msg)
		}
		m.got++
	}
	m.send(ctx)
}

func (m *stamper) send(ctx *Context) {
	round := ctx.Round()
	for p := 0; p < ctx.Degree(); p++ {
		msg := m.msgs.New(ctx, stampMsg{round: round, from: m.node, sum: stampSum(round, m.node)})
		ctx.Send(p, uint32(round+1), msg)
	}
}

// TestMsgsOutliveDelivery: a ring-allocated payload is intact when it is
// delivered, on time or held back by every delay the adversary may choose,
// however the senders and receivers are ordered in a round. A ring shorter
// than MaxDelay+2 rounds refills a slot before a late packet arrives, and
// this fails.
func TestMsgsOutliveDelivery(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Complete(8), graph.Cycle(12)} {
		for _, maxDelay := range []int{0, 1, 2, 4, maxMsgLife} {
			t.Run(fmt.Sprintf("n=%d/maxdelay=%d", g.N(), maxDelay), func(t *testing.T) {
				var adv Adversary
				if maxDelay > 0 {
					adv = &testAdv{maxDelay: maxDelay, fate: func(round, from, port, to int) (bool, int) {
						h := stampSum(round, from*64+port)
						if h>>63 == 0 { // DelayProb 0.5
							return false, 0
						}
						return false, 1 + int(h>>32)%maxDelay
					}}
				}
				nodes := make([]*stamper, g.N())
				nw := New(Config{Graph: g, Seed: 3, Adversary: adv}, func(node, degree int, r *rng.RNG) Machine {
					nodes[node] = &stamper{t: t, g: g, node: node, maxDelay: maxDelay}
					return nodes[node]
				})
				nw.Run(60)
				if t.Failed() {
					t.Fatalf("life %d", nw.ctxs[0].life)
				}
				got := 0
				for _, m := range nodes {
					got += m.got
				}
				if m := nw.Metrics(); got == 0 || (maxDelay > 0 && m.Delayed == 0) {
					t.Fatalf("%d deliveries, %d delayed", got, m.Delayed)
				}
			})
		}
	}
}
