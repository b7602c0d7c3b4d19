package sim

import (
	"fmt"
	"reflect"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// scripted logs the rounds it is stepped in, broadcasts in the rounds of
// sendAt, promises IdleUntil(init) in Init and, after a Step in round r,
// promises IdleUntil(idle[r]) when r is a key of idle.
type scripted struct {
	init    int
	idle    map[int]int
	sendAt  map[int]bool
	stepped []int
}

func (m *scripted) Init(ctx *Context) { ctx.IdleUntil(m.init) }

func (m *scripted) Step(ctx *Context, inbox []Packet) {
	m.stepped = append(m.stepped, ctx.Round())
	if m.sendAt[ctx.Round()] {
		ctx.Broadcast(testMsg{v: ctx.Round(), bits: 4})
	}
	if w, ok := m.idle[ctx.Round()]; ok {
		ctx.IdleUntil(w)
	}
}

// span returns the rounds lo..hi-1.
func span(lo, hi int) []int {
	var r []int
	for i := lo; i < hi; i++ {
		r = append(r, i)
	}
	return r
}

// TestIdleUntilContract runs a sleeper (node 0) beside a scripted sender
// (node 1) on a path and pins exactly which rounds the sleeper is stepped
// in: never on an empty inbox before its wake round, always when a packet
// — on time or released late by the adversary's ring — arrives, every
// round again once a step does not renew the promise, and never after a
// crash-stop that lands while it idles. Then it runs several sleepers at
// once and pins that each keeps its own promise: sleepers promising
// different rounds wake each in its own round, a packet that wakes one
// early lets its renewed promise outlive the old wake round, and a promise
// made in Init holds from round 0.
func TestIdleUntilContract(t *testing.T) {
	const rounds = 12
	cases := []struct {
		name   string
		sleep  map[int]int
		sendAt map[int]bool
		adv    *testAdv
		want   []int // the sleeper's stepped rounds
	}{
		{name: "sleeps until its wake round", sleep: map[int]int{0: 10},
			want: []int{0, 10, 11}},
		{name: "a wake round past 2^31 sleeps to the end", sleep: map[int]int{0: 1 << 40},
			want: []int{0}},
		{name: "a packet wakes it and the unrenewed promise is gone", sleep: map[int]int{0: 10},
			sendAt: map[int]bool{4: true},
			want:   append([]int{0}, span(5, rounds)...)},
		{name: "a waking step may renew the promise", sleep: map[int]int{0: 10, 5: 8},
			sendAt: map[int]bool{4: true},
			want:   []int{0, 5, 8, 9, 10, 11}},
		{name: "a delayed packet released by the ring wakes it", sleep: map[int]int{0: 10, 6: 10},
			sendAt: map[int]bool{2: true},
			adv: &testAdv{maxDelay: 3, fate: func(round, from, port, to int) (bool, int) {
				return false, 3 // round 2's send lands in round 6, not 3
			}},
			want: []int{0, 6, 10, 11}},
		{name: "a wake round at most one ahead promises nothing", sleep: map[int]int{0: 1, 1: 0, 2: 3, 3: -4},
			want: span(0, rounds)},
		{name: "a crash-stop while idle sticks", sleep: map[int]int{0: 10},
			sendAt: map[int]bool{7: true},
			adv: &testAdv{crash: func(v int) int {
				if v == 0 {
					return 5
				}
				return -1
			}},
			want: []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Graph: graph.Path(2), Seed: 1}
			if tc.adv != nil {
				cfg.Adversary = tc.adv
			}
			var halted []int
			cfg.Observer = func(ri RoundInfo) { halted = append(halted, ri.Halted) }
			nw := New(cfg, func(node, degree int, r *rng.RNG) Machine {
				if node == 0 {
					return &scripted{idle: tc.sleep}
				}
				return &scripted{sendAt: tc.sendAt}
			})
			nw.Run(rounds)
			if got := nw.Machine(0).(*scripted).stepped; !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("sleeper stepped in rounds %v, want %v", got, tc.want)
			}
			if got := nw.Machine(1).(*scripted).stepped; !reflect.DeepEqual(got, span(0, rounds)) {
				t.Fatalf("sender stepped in rounds %v, want every round", got)
			}
			crashed := tc.adv != nil && tc.adv.crash != nil
			if nw.Halted(0) != crashed || nw.Crashed(0) != crashed {
				t.Fatalf("sleeper halted=%v crashed=%v, want %v", nw.Halted(0), nw.Crashed(0), crashed)
			}
			for r, h := range halted {
				if want := btoi(crashed && r >= 5); h != want {
					t.Fatalf("RoundInfo.Halted in round %d = %d, want %d", r, h, want)
				}
			}
		})
	}

	// Four sleepers around a scripted sender, the hub of a star, each
	// keeping its own promise; every case runs on time and under a delay
	// adversary, the hub sending early enough that its broadcast arrives in
	// round arrive either way (0: it never sends).
	const sleeperRounds = 14
	sleepers := []struct {
		name   string
		init   []int         // each sleeper's Init promise
		sleep  []map[int]int // each sleeper's promises after a step
		arrive int
		want   [][]int // each sleeper's stepped rounds
	}{
		{name: "each wakes in its own round",
			sleep: []map[int]int{{0: 3}, {0: 7}, {0: 7}, {0: 12}},
			want: [][]int{
				append([]int{0}, span(3, sleeperRounds)...),
				append([]int{0}, span(7, sleeperRounds)...),
				append([]int{0}, span(7, sleeperRounds)...),
				{0, 12, 13},
			}},
		{name: "a packet wakes them early and renewed promises pass the old wake rounds",
			sleep:  []map[int]int{{0: 7, 6: 10}, {0: 7}, {0: 3, 3: 12, 6: 9}, {0: 12}},
			arrive: 6,
			want: [][]int{
				{0, 6, 10, 11, 12, 13},
				append([]int{0}, span(6, sleeperRounds)...),
				{0, 3, 6, 9, 10, 11, 12, 13},
				append([]int{0}, span(6, sleeperRounds)...),
			}},
		{name: "a promise made in Init",
			init:  []int{5, 1, 0, 9},
			sleep: []map[int]int{nil, nil, nil, {9: 12}},
			want:  [][]int{span(5, sleeperRounds), span(1, sleeperRounds), span(0, sleeperRounds), {9, 12, 13}}},
	}
	for _, tc := range sleepers {
		for _, delay := range []int{0, 3} {
			t.Run(fmt.Sprintf("several sleepers/%s/delay=%d", tc.name, delay), func(t *testing.T) {
				cfg := Config{Graph: graph.Star(5), Seed: 1}
				if delay > 0 {
					cfg.Adversary = &testAdv{maxDelay: delay, fate: func(round, from, port, to int) (bool, int) {
						return false, delay
					}}
				}
				sendAt := map[int]bool{}
				if tc.arrive > 0 {
					sendAt[tc.arrive-1-delay] = true
				}
				nw := New(cfg, func(node, degree int, r *rng.RNG) Machine {
					if node == 0 {
						return &scripted{sendAt: sendAt}
					}
					m := &scripted{idle: tc.sleep[node-1]}
					if tc.init != nil {
						m.init = tc.init[node-1]
					}
					return m
				})
				nw.Run(sleeperRounds)
				if got := nw.Machine(0).(*scripted).stepped; !reflect.DeepEqual(got, span(0, sleeperRounds)) {
					t.Fatalf("sender stepped in rounds %v, want every round", got)
				}
				for v := 1; v <= 4; v++ {
					if got := nw.Machine(v).(*scripted).stepped; !reflect.DeepEqual(got, tc.want[v-1]) {
						t.Errorf("sleeper %d stepped in rounds %v, want %v", v, got, tc.want[v-1])
					}
				}
			})
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestIdleRoundAllocationFree: a round in which every node is skipped
// costs no allocation.
func TestIdleRoundAllocationFree(t *testing.T) {
	nw := New(Config{Graph: graph.Torus(8, 8)}, func(node, degree int, r *rng.RNG) Machine {
		return &scripted{idle: map[int]int{0: 1 << 30}}
	})
	nw.Run(2)
	if avg := testing.AllocsPerRun(50, func() { nw.Step() }); avg > 0 {
		t.Fatalf("an all-idle round allocates %.1f objects, want 0", avg)
	}
}

// TestHaltedCountCountsEachNodeOnce: a node that halts by protocol and is
// then crash-stopped is one stopped node, and the network still ends.
func TestHaltedCountCountsEachNodeOnce(t *testing.T) {
	g := graph.Cycle(4)
	adv := &testAdv{crash: func(v int) int {
		if v == 0 {
			return 3
		}
		return -1
	}}
	var last RoundInfo
	nw := New(Config{Graph: g, Seed: 1, Adversary: adv, Observer: func(ri RoundInfo) { last = ri }},
		func(node, degree int, r *rng.RNG) Machine {
			stop := 6
			if node == 0 {
				stop = 1 // halts in round 1, crash-stopped in round 3
			}
			return &recorder{stopRound: stop, sendBits: 4}
		})
	nw.Run(4)
	if last.Halted != 1 || nw.Metrics().Crashes != 1 || nw.AllHalted() {
		t.Fatalf("after round 3: Halted=%d crashed=%d all=%v, want 1, 1, false", last.Halted, nw.Metrics().Crashes, nw.AllHalted())
	}
	nw.Run(100)
	if last.Halted != g.N() || !nw.AllHalted() {
		t.Fatalf("at the end: Halted=%d all=%v, want %d, true", last.Halted, nw.AllHalted(), g.N())
	}
}
