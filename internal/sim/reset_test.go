package sim

import (
	"fmt"
	"reflect"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// probe draws everything from its stream: its halting round, how many
// packets it sends each round (two on one port overflow the receiver's
// mailbox window), their ports and channels, and when it promises to idle.
// It logs every step and every packet, so a stale packet, a lost one or an
// extra visit shows in its log. A probe that panics does so in round 5.
type probe struct {
	r      *rng.RNG
	stop   int
	panics bool
	log    []int // per step: round, then port, channel and value of each packet
}

func (m *probe) Init(ctx *Context) {
	m.stop = 4 + m.r.Intn(10)
	m.send(ctx)
}

func (m *probe) Step(ctx *Context, inbox []Packet) {
	if m.panics && ctx.Round() == 5 {
		panic("probe")
	}
	m.log = append(m.log, -1, ctx.Round())
	for _, p := range inbox {
		m.log = append(m.log, int(p.Port), int(p.Channel), p.Payload.(testMsg).v)
	}
	if ctx.Round() >= m.stop {
		ctx.Halt()
		return
	}
	m.send(ctx)
}

func (m *probe) send(ctx *Context) {
	port := m.r.Intn(ctx.Degree())
	for k := m.r.Intn(3); k >= 0; k-- {
		ctx.Send(port, uint32(m.r.Intn(2)), testMsg{v: ctx.Round()*8 + k, bits: 3 + m.r.Intn(30)})
		port = (port + m.r.Intn(2)) % ctx.Degree()
	}
	if m.r.Intn(3) == 0 {
		ctx.IdleUntil(ctx.Round() + 2 + m.r.Intn(3))
	}
}

func probeFactory(node, degree int, r *rng.RNG) Machine { return &probe{r: r} }

// probeRun is everything a run shows: each node's log, halt and crash, the
// metrics and the observed rounds.
type probeRun struct {
	logs            [][]int
	halted, crashed []bool
	metrics         Metrics
	rounds          []RoundInfo
}

// runProbes runs nw, which New or Reset just started with an observer
// appending to *rounds, to the end.
func runProbes(nw *Network, rounds *[]RoundInfo) probeRun {
	nw.Run(200)
	r := probeRun{metrics: nw.Metrics(), rounds: *rounds}
	for v := 0; v < nw.N(); v++ {
		r.logs = append(r.logs, nw.Machine(v).(*probe).log)
		r.halted = append(r.halted, nw.Halted(v))
		r.crashed = append(r.crashed, nw.Crashed(v))
	}
	return r
}

// TestResetRunsAsNew: Reset starts a run exactly as New does, whatever the
// last run left behind. For each pair of configurations — no adversary,
// loss and crashes, delays, a traffic-adaptive crash — the first run is
// cut short, either between rounds after round 5 (mail, sleepers and
// parked packets still in the network, nothing closed) or by a machine
// that panics in the middle of round 5. Then the network is reset to the
// second configuration and run to the end. The result must equal the same
// run on a new network: logs, halts, crashes, metrics and observed rounds.
func TestResetRunsAsNew(t *testing.T) {
	g := graph.Torus(5, 6)
	cfgs := map[string]func() Config{
		"clean": func() Config { return Config{Seed: 1} },
		"loss-crash": func() Config {
			return Config{Seed: 2, Adversary: &testAdv{
				crash: func(v int) int { return 3 - 4*min(v%7, 1) }, // every 7th node at round 3
				fate:  func(round, from, port, to int) (bool, int) { return (round+from+port)%5 == 0, 0 },
			}}
		},
		"delay": func() Config {
			return Config{Seed: 3, CongestBits: 16, Adversary: &testAdv{
				maxDelay: 3,
				fate:     func(round, from, port, to int) (bool, int) { return false, (round + from + to) % 4 },
			}}
		},
		"adaptive": func() Config { return Config{Seed: 4, Adversary: &testAdaptive{fireRound: 0}} },
	}
	cuts := map[string]func(nw *Network){
		"cut": func(nw *Network) { nw.Run(6) },
		"panic": func(nw *Network) {
			defer func() {
				if recover() == nil {
					t.Fatal("no machine panicked")
				}
			}()
			nw.Run(6)
		},
	}
	for prevName, prev := range cfgs {
		for nextName, next := range cfgs {
			for cutName, cut := range cuts {
				t.Run(fmt.Sprintf("%s-%s-then-%s", prevName, cutName, nextName), func(t *testing.T) {
					var rounds []RoundInfo
					cfg := next()
					cfg.Graph, cfg.Observer = g, func(ri RoundInfo) { rounds = append(rounds, ri) }
					want := runProbes(New(cfg, probeFactory), &rounds)

					cfg = prev()
					cfg.Graph = g
					nw := New(cfg, func(node, degree int, r *rng.RNG) Machine {
						return &probe{r: r, panics: cutName == "panic" && node == 17}
					})
					cut(nw)
					if nw.Done() {
						t.Fatal("the first run ended before its cut")
					}
					rounds = nil
					cfg = next()
					cfg.Graph, cfg.Observer = g, func(ri RoundInfo) { rounds = append(rounds, ri) }
					nw.Reset(cfg, probeFactory)
					if got := runProbes(nw, &rounds); !reflect.DeepEqual(got, want) {
						t.Fatalf("reset run differs from a new network's:\ngot  %+v\nwant %+v", got.metrics, want.metrics)
					}
				})
			}
		}
	}
}
