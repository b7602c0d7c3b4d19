package anonlead

import (
	"context"
	"reflect"
	"strings"
	"testing"
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
	prof, err := nw.Profile(ProfileAuto)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}
