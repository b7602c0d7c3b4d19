package anonlead

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"anonlead/internal/core"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/transport"
)

// TestTransportParity: for the same seed, every real backend — including
// TCP sockets over localhost — must elect the same leader in the same
// number of rounds with the same cost metrics as the in-memory simulator,
// for the baselines (floodmax, allflood) and the round-bounded paper
// protocols (ire, walknotify, explicit). Explicit must also build the same
// announcement tree: who learned the leader, parents and depths.
func TestTransportParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up full TCP clusters")
	}
	nets := map[string]func(t *testing.T) *Network{
		"cycle16": func(t *testing.T) *Network { return mustNetwork(t, "cycle", 16, 0) },
		"rr16d4":  func(t *testing.T) *Network { return mustNetwork(t, "regular4", 16, 7) },
	}
	for nname, mk := range nets {
		for _, protocol := range []string{ProtoFloodMax, ProtoIRE, ProtoWalkNotify, ProtoExplicit, ProtoAllFlood} {
			nw := mk(t)
			const seed = 12345
			want, err := nw.Run(context.Background(), protocol, WithSeed(seed))
			if err != nil {
				t.Fatalf("%s/%s sim: %v", nname, protocol, err)
			}
			for _, backend := range []Transport{TransportChan, TransportPipe, TransportTCP} {
				t.Run(nname+"/"+protocol+"/"+backend.String(), func(t *testing.T) {
					got, err := nw.Run(context.Background(), protocol,
						WithSeed(seed), WithTransport(backend))
					if err != nil {
						t.Fatalf("%s backend: %v", backend, err)
					}
					if got.LeaderID != want.LeaderID {
						t.Errorf("leader: %s elected %d, sim elected %d", backend, got.LeaderID, want.LeaderID)
					}
					if !reflect.DeepEqual(got.Leaders, want.Leaders) {
						t.Errorf("leader set: %s %v, sim %v", backend, got.Leaders, want.Leaders)
					}
					if got.Rounds != want.Rounds {
						t.Errorf("rounds: %s %d, sim %d", backend, got.Rounds, want.Rounds)
					}
					if !reflect.DeepEqual(got.Metrics, want.Metrics) {
						t.Errorf("metrics diverge:\n  %s: %+v\n  sim: %+v", backend, got.Metrics, want.Metrics)
					}
					if got.AllKnow != want.AllKnow || !reflect.DeepEqual(got.Parents, want.Parents) ||
						!reflect.DeepEqual(got.Depths, want.Depths) {
						t.Errorf("announcement tree: %s (all know %v, parents %v, depths %v), sim (%v, %v, %v)",
							backend, got.AllKnow, got.Parents, got.Depths, want.AllKnow, want.Parents, want.Depths)
					}
				})
			}
		}
	}
}

// TestTransportRevocableConvergence runs the open-ended revocable protocol
// on every real backend, exercising RunUntilContext's convergence-check
// path through real transports (including TCP framing of the revocation
// certificates).
func TestTransportRevocableConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long revocable run")
	}
	nw := mustNetwork(t, "complete", 4, 1)
	const seed = 2
	iso := mustProfile(t, nw).Isoperimetric
	want, err := nw.Run(context.Background(), ProtoRevocable, WithSeed(seed), WithIsoperimetric(iso))
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for _, backend := range []Transport{TransportChan, TransportPipe, TransportTCP} {
		t.Run(backend.String(), func(t *testing.T) {
			got, err := nw.Run(context.Background(), ProtoRevocable,
				WithSeed(seed), WithIsoperimetric(iso), WithTransport(backend))
			if err != nil {
				t.Fatalf("%s backend: %v", backend, err)
			}
			if got.Rounds != want.Rounds || got.LeaderID != want.LeaderID {
				t.Fatalf("revocable diverges: %s (leader %d, %d rounds) vs sim (leader %d, %d rounds)",
					backend, got.LeaderID, got.Rounds, want.LeaderID, want.Rounds)
			}
			if want.Certificate == nil || got.Certificate == nil || *got.Certificate != *want.Certificate {
				t.Fatalf("certificates diverge: %s %+v vs sim %+v", backend, got.Certificate, want.Certificate)
			}
		})
	}
}

// TestTransportStepsWhatSimSteps: a wire backend steps a machine in
// exactly the rounds the simulator steps it. The coordinator releases only
// the simulator's visit set — nodes with mail, without an IdleUntil
// promise, or whose promised round has come — so the number of Machine.Step
// calls in every round must be the simulator's, on chan and on tcp, for
// the hinting protocols (ire, explicit, walknotify), for floodmax, and for
// revocable under a round cap.
func TestTransportStepsWhatSimSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up full TCP clusters")
	}
	type cell struct {
		proto, family string
		n, cap        int // cap: the rounds an open-ended protocol runs
	}
	var cells []cell
	for _, fam := range []struct {
		name string
		n    int
	}{{"expander", 64}, {"cycle", 48}} {
		for _, proto := range []string{ProtoIRE, ProtoExplicit, ProtoWalkNotify, ProtoFloodMax} {
			cells = append(cells, cell{proto: proto, family: fam.name, n: fam.n})
		}
	}
	cells = append(cells, cell{proto: ProtoRevocable, family: "complete", n: 4, cap: 400})
	for _, c := range cells {
		nw := mustNetwork(t, c.family, c.n, 1)
		var opts []Option
		if c.proto == ProtoRevocable {
			opts = append(opts, WithIsoperimetric(mustProfile(t, nw).Isoperimetric))
		}
		pc, err := nw.ProtoConfig(c.proto, opts...)
		if err != nil {
			t.Fatal(err)
		}
		entry, _ := core.Lookup(c.proto)
		for seed := uint64(1); seed <= 2; seed++ {
			// steps runs one election on backend (nil: the simulator) and
			// returns its Step calls per round.
			steps := func(t *testing.T, backend transport.Transport) []int {
				runner, err := entry.Build(pc)
				if err != nil {
					t.Fatal(err)
				}
				rounds := runner.Budget
				if rounds == 0 {
					rounds = c.cap
				}
				counts := &roundSteps{}
				factory := func(node, degree int, r *rng.RNG) sim.Machine {
					return roundStepper{runner.Factory(node, degree, r), counts}
				}
				if backend == nil {
					sim.New(sim.Config{Graph: nw.g, Seed: seed}, factory).Run(rounds)
					return counts.perRound
				}
				cl, err := transport.NewCluster(context.Background(), transport.Config{Graph: nw.g, Seed: seed, Transport: backend}, factory, entry.Wire)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				if _, err := cl.RunContext(context.Background(), rounds); err != nil {
					t.Fatal(err)
				}
				return counts.perRound
			}
			name := fmt.Sprintf("%s/%s-%d/seed%d", c.proto, c.family, c.n, seed)
			want := steps(t, nil)
			for _, backend := range []transport.Transport{transport.ChanTransport{}, transport.TCPTransport{}} {
				t.Run(name+"/"+backend.Name(), func(t *testing.T) {
					got := steps(t, backend)
					if !reflect.DeepEqual(got, want) {
						r := 0
						for r < min(len(got), len(want)) && got[r] == want[r] {
							r++
						}
						t.Fatalf("from round %d on, %s stepped %v machines, the simulator %v",
							r, backend.Name(), got[r:min(r+5, len(got))], want[r:min(r+5, len(want))])
					}
				})
			}
		}
	}
}

// roundSteps counts Machine.Step calls per round over all nodes of one run;
// a wire backend steps its nodes on concurrent goroutines.
type roundSteps struct {
	mu       sync.Mutex
	perRound []int
}

// roundStepper wraps a machine, counting its steps in a roundSteps.
type roundStepper struct {
	sim.Machine
	counts *roundSteps
}

func (m roundStepper) Step(ctx *sim.Context, inbox []sim.Packet) {
	c := m.counts
	c.mu.Lock()
	for len(c.perRound) <= ctx.Round() {
		c.perRound = append(c.perRound, 0)
	}
	c.perRound[ctx.Round()]++
	c.mu.Unlock()
	m.Machine.Step(ctx, inbox)
}

// TestTransportRejectsAdversary pins the guard: transport-level runs have
// no router, so simulated adversaries are an explicit configuration error
// rather than a silent no-op.
func TestTransportRejectsAdversary(t *testing.T) {
	nw := mustNetwork(t, "cycle", 8, 0)
	_, err := nw.Run(context.Background(), ProtoFloodMax,
		WithTransport(TransportChan), WithAdversary(AdversarySpec{Loss: 0.1}))
	if err == nil || !strings.Contains(err.Error(), "WithAdversary requires TransportSim") {
		t.Fatalf("got %v, want the WithAdversary/TransportSim error", err)
	}
}

func mustNetwork(t *testing.T, family string, n int, seed uint64) *Network {
	t.Helper()
	nw, err := NewNetwork(family, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func mustProfile(t *testing.T, nw *Network) Profile {
	t.Helper()
	prof, err := nw.Profile()
	if err != nil {
		t.Fatal(err)
	}
	return prof
}
